package ralloc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pmem"
	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// There is one recovery engine; these tests check it against the model
// counts of each scenario and against CheckInvariants at every worker count,
// and require that the worker count changes nothing observable.

var workerCounts = []int{1, 2, 4, 8}

// counters strips the wall-clock fields, leaving what must not depend on
// the worker count.
func counters(s RecoveryStats) RecoveryStats {
	s.TraceTime, s.SweepTime, s.Duration = 0, 0, 0
	return s
}

// listMembers walks the descriptor list at headOff, linked through linkOff.
func listMembers(h *Heap, headOff, linkOff uint64) []int {
	var members []int
	_, idx, ok := pptr.UnpackHead(h.region.Load(headOff))
	for ok {
		members = append(members, int(idx))
		next := h.region.Load(h.lay.descOff(idx) + linkOff)
		if next == 0 {
			break
		}
		idx = uint32(next - 1)
	}
	return members
}

// partialMembership renders which descriptors sit on which (class, shard)
// partial list, order within a list aside.
func partialMembership(h *Heap) string {
	var out string
	for c := 1; c <= sizeclass.NumClasses; c++ {
		for s := uint32(0); s < MaxShards; s++ {
			if members := listMembers(h, partialHeadOff(c, s), dOffNextPartial); len(members) > 0 {
				sort.Ints(members)
				out += fmt.Sprintf("c%d/s%d:%v ", c, s, members)
			}
		}
	}
	return out
}

// recoverAtEveryWorkerCount builds the same crashed heap once per worker
// count (build must be deterministic and register the root filters),
// recovers it with that many workers, and requires a clean CheckInvariants
// and counters and partial-list membership identical to the one-worker run.
// check, if not nil, asserts the scenario's own expectations on every run.
func recoverAtEveryWorkerCount(t *testing.T, build func(t *testing.T) *Heap, check func(t *testing.T, h *Heap, s RecoveryStats)) {
	t.Helper()
	var want RecoveryStats
	var wantLists string
	for _, workers := range workerCounts {
		h := build(t)
		stats, err := h.RecoverParallel(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.TraceWork == 0 || stats.SweepUnits == 0 {
			t.Fatalf("workers=%d: work counters not recorded: %+v", workers, stats)
		}
		got, lists := counters(stats), partialMembership(h)
		if workers == workerCounts[0] {
			want, wantLists = got, lists
		}
		if got != want {
			t.Fatalf("workers=%d: counters %+v, want %+v as with one worker", workers, got, want)
		}
		if lists != wantLists {
			t.Fatalf("workers=%d: partial lists %s, want %s as with one worker", workers, lists, wantLists)
		}
		if check != nil {
			check(t, h, stats)
		}
	}
}

// buildWideGraph makes a bushy pointer graph (so a multi-worker trace has
// fan-out to exploit) plus a deep chain (so work-sharing must split within
// one structure). Returns the root offset and the expected reachable count.
func buildWideGraph(t *testing.T, h *Heap, hd *Handle, fanout, depth int) (uint64, uint64) {
	t.Helper()
	r := h.Region()
	count := uint64(0)
	newNode := func() uint64 {
		off := hd.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		//pmemvet:ignore fresh block: private to this goroutine until a later Store links it
		r.Zero(off, 64)
		count++
		return off
	}
	// Deep chain.
	var chain uint64
	for i := 0; i < depth; i++ {
		n := newNode()
		if chain != 0 {
			r.Store(n, pptr.Pack(n, chain))
		}
		r.FlushRange(n, 64)
		chain = n
	}
	// Bushy tree: root with fanout children, each with fanout leaves.
	root := newNode()
	r.Store(root, pptr.Pack(root, chain))
	for i := 1; i <= fanout && i < 7; i++ {
		mid := newNode()
		for j := 1; j <= fanout && j < 7; j++ {
			leaf := newNode()
			r.Store(leaf+8, uint64(j))
			r.FlushRange(leaf, 64)
			r.Store(mid+uint64(j)*8, pptr.Pack(mid+uint64(j)*8, leaf))
		}
		r.FlushRange(mid, 64)
		r.Store(root+uint64(i)*8, pptr.Pack(root+uint64(i)*8, mid))
	}
	r.FlushRange(root, 64)
	r.Fence()
	return root, count
}

// crashed simulates the crash and re-registers conservative tracing on the
// given roots, as a restarted process would before recovering.
func crashed(t *testing.T, h *Heap, roots ...int) *Heap {
	t.Helper()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	for _, i := range roots {
		h.GetRoot(i, nil)
	}
	return h
}

func TestRecoverAtEveryWorkerCount(t *testing.T) {
	// A deep chain under a bushy tree plus leaked noise; the chain is long
	// enough that workers donate (donateThreshold) and steal.
	t.Run("wide-graph", func(t *testing.T) {
		var reachable uint64
		recoverAtEveryWorkerCount(t, func(t *testing.T) *Heap {
			h := crashHeap(t, 0)
			hd := h.NewHandle()
			var root uint64
			root, reachable = buildWideGraph(t, h, hd, 6, 3000)
			for i := 0; i < 2000; i++ {
				hd.Malloc(48)
			}
			h.SetRoot(0, root)
			return crashed(t, h, 0)
		}, func(t *testing.T, h *Heap, s RecoveryStats) {
			if s.ReachableBlocks != reachable || s.ReachableBytes != reachable*64 {
				t.Fatalf("reachable = %d blocks / %d bytes, want %d / %d",
					s.ReachableBlocks, s.ReachableBytes, reachable, reachable*64)
			}
		})
	})

	// One kept and one leaked large run: a run is one sweep unit.
	t.Run("large-runs", func(t *testing.T) {
		var kept uint64
		recoverAtEveryWorkerCount(t, func(t *testing.T) *Heap {
			h := crashHeap(t, 0)
			hd := h.NewHandle()
			r := h.Region()
			hdr := hd.Malloc(16)
			kept = hd.Malloc(200_000)
			r.Store(kept, 0xAB)
			r.FlushRange(kept, 8)
			r.Store(hdr, pptr.Pack(hdr, kept))
			r.FlushRange(hdr, 8)
			r.Fence()
			h.SetRoot(0, hdr)
			hd.Malloc(300_000) // leaked run
			return crashed(t, h, 0)
		}, func(t *testing.T, h *Heap, s RecoveryStats) {
			if s.LargeRuns != 1 || s.ReachableBlocks != 2 {
				t.Fatalf("kept runs = %d, reachable = %d, want 1 and 2", s.LargeRuns, s.ReachableBlocks)
			}
			if h.Region().Load(kept) != 0xAB {
				t.Fatal("large block content lost")
			}
		})
	})

	// A short list: fewer blocks than workers can share.
	t.Run("list-100", func(t *testing.T) {
		recoverAtEveryWorkerCount(t, func(t *testing.T) *Heap {
			h := crashHeap(t, 0)
			buildList(t, h, h.NewHandle(), 100, 0)
			return crashed(t, h, 0)
		}, func(t *testing.T, h *Heap, s RecoveryStats) {
			if s.ReachableBlocks != 100 {
				t.Fatalf("reachable = %d, want 100", s.ReachableBlocks)
			}
		})
	})

	// Random graphs with cycles and shared targets under two roots; the
	// expected count is the model's own reachability walk.
	for trial := 0; trial < 5; trial++ {
		t.Run(fmt.Sprintf("random-graph-%d", trial), func(t *testing.T) {
			var reachable uint64
			recoverAtEveryWorkerCount(t, func(t *testing.T) *Heap {
				rng := rand.New(rand.NewSource(int64(trial) + 99))
				h := crashHeap(t, 0)
				hd := h.NewHandle()
				r := h.Region()
				const pool = 400
				nodes := make([]uint64, pool)
				for i := range nodes {
					nodes[i] = hd.Malloc(64)
					r.Zero(nodes[i], 64)
				}
				edges := map[uint64][]uint64{}
				for _, off := range nodes {
					for s := uint64(0); s < 4; s++ {
						if rng.Intn(2) == 0 {
							tgt := nodes[rng.Intn(pool)]
							if tgt != off {
								r.Store(off+s*8, pptr.Pack(off+s*8, tgt))
								edges[off] = append(edges[off], tgt)
							}
						}
					}
					r.FlushRange(off, 64)
				}
				r.Fence()
				h.SetRoot(0, nodes[0])
				h.SetRoot(5, nodes[pool/2])

				seen := map[uint64]bool{}
				stack := []uint64{nodes[0], nodes[pool/2]}
				for len(stack) > 0 {
					off := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if !seen[off] {
						seen[off] = true
						stack = append(stack, edges[off]...)
					}
				}
				reachable = uint64(len(seen))
				return crashed(t, h, 0, 5)
			}, func(t *testing.T, h *Heap, s RecoveryStats) {
				if s.ReachableBlocks != reachable {
					t.Fatalf("reachable = %d, model says %d", s.ReachableBlocks, reachable)
				}
			})
		})
	}
}

func TestRecoverParallelPreservesStructure(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	nodes := buildList(t, h, hd, 3000, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.RecoverParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != uint64(len(nodes)) {
		t.Fatalf("reachable = %d, want %d", stats.ReachableBlocks, len(nodes))
	}
	if got := len(walkList(h, 0)); got != len(nodes) {
		t.Fatalf("list length = %d after parallel recovery", got)
	}
	// Post-recovery allocation avoids survivors.
	live := map[uint64]bool{}
	for _, off := range walkList(h, 0) {
		live[off] = true
	}
	hd2 := h.NewHandle()
	for i := 0; i < 10000; i++ {
		off := hd2.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		if live[off] {
			t.Fatalf("reachable block %#x re-allocated", off)
		}
	}
}

// populateZoo fills a fresh heap with one of every kind of unit the sweep
// classifies: a live list (partial and full small superblocks), a live large
// run on root 1, leaked small blocks of classes nothing live shares (their
// superblocks sweep fully free), and a leaked large run whose head descriptor
// is torn, which leaves its body as orphaned continuations.
func populateZoo(t *testing.T, h *Heap) {
	t.Helper()
	r, hd := h.Region(), h.NewHandle()
	buildList(t, h, hd, 1500, 0)
	big := hd.Malloc(3*SuperblockBytes + 100)
	for i := 0; i < 4000; i++ {
		if hd.Malloc([]uint64{16, 64, 320}[i%3]) == 0 {
			t.Fatal("OOM")
		}
	}
	torn := hd.Malloc(3*SuperblockBytes + 100)
	if big == 0 || torn == 0 {
		t.Fatal("large OOM")
	}
	r.Store(big, 0xB16B10C)
	r.Flush(big)
	r.Fence()
	h.SetRoot(1, big)
	idx, _ := h.lay.descIndexOf(torn)
	r.Store(h.lay.descOff(idx)+dOffBlockSize, 0)
	r.Flush(h.lay.descOff(idx))
	r.Fence()
}

func zooConfig(sbRegion uint64, mode pmem.Mode) Config {
	return Config{SBRegion: sbRegion, GrowthChunk: 1 << 20, Shards: 4, Pmem: pmem.Config{Mode: mode, Seed: 7}}
}

// reattachZoo attaches to a dirty zoo region and registers its roots.
func reattachZoo(t *testing.T, region *pmem.Region) *Heap {
	t.Helper()
	h, dirty, err := Attach(region, zooConfig(0, region.Mode()))
	if err != nil || !dirty {
		t.Fatalf("attach: dirty=%v err=%v", dirty, err)
	}
	h.GetRoot(0, nil)
	h.GetRoot(1, nil)
	return h
}

// TestRecoverWritesEverythingBack pins step 10, which flushes only up to the
// used watermark: after recovery of a crashed, re-attached heap no line is
// left dirty, and — the stronger form — a second strict crash straight after
// loses nothing recovery rebuilt: recovering again finds the same heap.
func TestRecoverWritesEverythingBack(t *testing.T) {
	for name, run := range map[string]func(*Heap) (RecoveryStats, error){
		"workers=1": func(h *Heap) (RecoveryStats, error) { return h.RecoverParallel(1) },
		"workers=4": func(h *Heap) (RecoveryStats, error) { return h.RecoverParallel(4) },
		"collect":   func(h *Heap) (RecoveryStats, error) { return h.NewManager().Collect() },
	} {
		t.Run(name, func(t *testing.T) {
			h, _, err := Open("", zooConfig(16<<20, pmem.ModeCrashSim))
			if err != nil {
				t.Fatal(err)
			}
			populateZoo(t, h)
			region := h.Region()
			if err := region.Crash(); err != nil {
				t.Fatal(err)
			}
			first, err := run(reattachZoo(t, region))
			if err != nil {
				t.Fatal(err)
			}
			if first.LargeRuns != 1 || first.ReachableBlocks != 1501 || first.PartialSBs == 0 || first.FreeSuperblocks < 4 {
				t.Fatalf("zoo not as built: %+v", first)
			}
			if n := region.DirtyLines(); n != 0 {
				t.Fatalf("%d lines still dirty after recovery", n)
			}
			if err := region.Crash(); err != nil {
				t.Fatal(err)
			}
			h3 := reattachZoo(t, region)
			second, err := h3.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if counters(second) != counters(first) {
				t.Fatalf("recovery after a crash straight after recovery differs:\n first %+v\nsecond %+v", counters(first), counters(second))
			}
			if _, err := h3.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if v := region.Load(h3.GetRoot(1, nil)); v != 0xB16B10C {
				t.Fatalf("live large run holds %#x", v)
			}
		})
	}
}

// TestRecoverFlushesFollowUsedWatermark: what recovery writes back is the
// metadata block, the superblocks below the used watermark and their
// descriptors — the same contents cost the same flushes in a heap eight
// times the capacity.
func TestRecoverFlushesFollowUsedWatermark(t *testing.T) {
	var flushes [2]uint64
	for i, sbRegion := range []uint64{16 << 20, 128 << 20} {
		h, _, err := Open("", zooConfig(sbRegion, pmem.ModeFast))
		if err != nil {
			t.Fatal(err)
		}
		populateZoo(t, h)
		h2 := reattachZoo(t, h.Region()) // never closed: dirty, as after a kill
		used := uint64(h2.usedDescs())
		before := h2.Region().Stats()
		if _, err := h2.Recover(); err != nil {
			t.Fatal(err)
		}
		after := h2.Region().Stats()
		flushes[i] = after.Flushes - before.Flushes
		if want := (MetaBytes + used*SuperblockBytes + used*DescBytes) / pmem.LineBytes; flushes[i] != want {
			t.Errorf("SBRegion %d MB, %d superblocks used: recovery issued %d flushes, want %d", sbRegion>>20, used, flushes[i], want)
		}
		if after.Fences-before.Fences != 1 {
			t.Errorf("SBRegion %d MB: recovery issued %d fences, want 1", sbRegion>>20, after.Fences-before.Fences)
		}
	}
	if flushes[0] != flushes[1] {
		t.Errorf("recovery flushes depend on capacity: %d in 16 MB, %d in 128 MB", flushes[0], flushes[1])
	}
}
