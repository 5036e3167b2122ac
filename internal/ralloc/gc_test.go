package ralloc

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/pptr"
)

func crashHeap(t *testing.T, evictProb float64) *Heap {
	t.Helper()
	h, dirty, err := Open("", Config{
		SBRegion:    8 << 20,
		GrowthChunk: 1 << 20,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, EvictProb: evictProb, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("fresh heap dirty")
	}
	return h
}

// buildList allocates a persistent singly linked list of n 64-byte nodes
// (word 0: next off-holder, word 1: value), durably linearizable: each node
// is flushed before being linked, and the root is set last. Returns the head
// offset and the node offsets in list order.
func buildList(t *testing.T, h *Heap, hd *Handle, n int, root int) []uint64 {
	t.Helper()
	r := h.Region()
	var nodes []uint64
	var prev uint64
	for i := 0; i < n; i++ {
		off := hd.Malloc(64)
		if off == 0 {
			t.Fatal("OOM building list")
		}
		if prev == 0 {
			r.Store(off, pptr.Nil)
		} else {
			r.Store(off, pptr.Pack(off, prev))
		}
		r.Store(off+8, uint64(1000+i))
		r.FlushRange(off, 16)
		r.Fence()
		prev = off
		nodes = append(nodes, off)
	}
	h.SetRoot(root, prev) // head = last inserted
	return nodes
}

// walkList follows the off-holder chain from the root and returns the node
// offsets visited.
func walkList(h *Heap, root int) []uint64 {
	r := h.Region()
	var out []uint64
	off := h.GetRoot(root, nil)
	for off != 0 {
		out = append(out, off)
		next, ok := pptr.Unpack(off, r.Load(off))
		if !ok {
			break
		}
		off = next
	}
	return out
}

func TestRecoverEmptyHeap(t *testing.T) {
	h := crashHeap(t, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 0 {
		t.Fatalf("reachable = %d, want 0", stats.ReachableBlocks)
	}
	if h.NewHandle().Malloc(64) == 0 {
		t.Fatal("OOM after recovery")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverReclaimsLeakedBlocks(t *testing.T) {
	// Blocks that were allocated but never attached to a root are exactly
	// the failure-induced leaks recovery must reclaim (§1, §3).
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	for i := 0; i < 5000; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM")
		}
	}
	usedBefore := h.SBUsed()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 0 {
		t.Fatalf("reachable = %d, want 0 (nothing was attached)", stats.ReachableBlocks)
	}
	// The reclaimed space must be reusable without growing the region.
	hd2 := h.NewHandle()
	for i := 0; i < 5000; i++ {
		if hd2.Malloc(64) == 0 {
			t.Fatal("OOM after recovery")
		}
	}
	if h.SBUsed() > usedBefore {
		t.Fatalf("region grew from %d to %d; leaks were not reclaimed", usedBefore, h.SBUsed())
	}
}

func TestRecoverPreservesReachableList(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	nodes := buildList(t, h, hd, 500, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil) // conservative tracing
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 500 {
		t.Fatalf("reachable = %d, want 500", stats.ReachableBlocks)
	}
	got := walkList(h, 0)
	if len(got) != 500 {
		t.Fatalf("walk found %d nodes, want 500", len(got))
	}
	r := h.Region()
	for i, off := range got {
		if v := r.Load(off + 8); v != uint64(1000+499-i) {
			t.Fatalf("node %d value = %d, want %d", i, v, 1000+499-i)
		}
	}
	// New allocations must never overlap the surviving list.
	live := make(map[uint64]bool, len(nodes))
	for _, off := range got {
		live[off] = true
	}
	hd2 := h.NewHandle()
	for i := 0; i < 20000; i++ {
		off := hd2.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		if live[off] {
			t.Fatalf("recovery handed out reachable block %#x", off)
		}
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverMixedLiveAndFreed(t *testing.T) {
	// Interleave surviving list nodes with blocks that get detached and
	// freed: after crash+recovery, exactly the attached ones remain.
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	nodes := buildList(t, h, hd, 300, 0)
	for i := 0; i < 2000; i++ {
		off := hd.Malloc(48)
		if i%2 == 0 {
			hd.Free(off)
		}
	}
	_ = nodes
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 300 {
		t.Fatalf("reachable = %d, want 300", stats.ReachableBlocks)
	}
	if len(walkList(h, 0)) != 300 {
		t.Fatal("list damaged by recovery")
	}
}

func TestRecoverWithEviction(t *testing.T) {
	// Adversarial crash: half of the unflushed lines were spontaneously
	// evicted (and thus persisted). Recovery must still be exact for the
	// durably-written list and structurally consistent overall.
	h := crashHeap(t, 0.5)
	hd := h.NewHandle()
	buildList(t, h, hd, 400, 0)
	for i := 0; i < 3000; i++ {
		off := hd.Malloc(64)
		if i%3 != 0 {
			hd.Free(off)
		}
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(walkList(h, 0)); got != 400 {
		t.Fatalf("list has %d nodes after eviction crash, want 400", got)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverLargeBlocks(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	r := h.Region()

	// Header block holding an off-holder to a large block: attached.
	hdr := hd.Malloc(16)
	big := hd.Malloc(150_000)
	if hdr == 0 || big == 0 {
		t.Fatal("OOM")
	}
	r.Store(big, 0xB16B10C)
	r.FlushRange(big, 8)
	r.Store(hdr, pptr.Pack(hdr, big))
	r.FlushRange(hdr, 8)
	r.Fence()
	h.SetRoot(0, hdr)

	// A second large block, leaked (never attached).
	if hd.Malloc(150_000) == 0 {
		t.Fatal("OOM")
	}

	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 2 {
		t.Fatalf("reachable = %d, want 2 (header + large)", stats.ReachableBlocks)
	}
	if stats.LargeRuns != 1 {
		t.Fatalf("large runs kept = %d, want 1", stats.LargeRuns)
	}
	if v := r.Load(big); v != 0xB16B10C {
		t.Fatalf("large block content = %#x", v)
	}
	// The leaked run's superblocks must be reusable.
	chk, err := h.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if chk.FreeSuperblocks == 0 {
		t.Fatal("leaked large run was not reclaimed")
	}
}

func TestRecoverInteriorPointerRejected(t *testing.T) {
	// Conservative GC must not treat a pointer into the middle of a large
	// run (or mid-block) as reaching anything (§4.5: interior pointers
	// are not supported).
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	r := h.Region()
	big := hd.Malloc(150_000)
	hdr := hd.Malloc(16)
	r.Store(hdr, pptr.Pack(hdr, big+SuperblockBytes)) // into run body
	r.FlushRange(hdr, 8)
	r.Fence()
	h.SetRoot(0, hdr)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 1 { // just the header
		t.Fatalf("reachable = %d, want 1", stats.ReachableBlocks)
	}
}

func TestFilterFunctionTracesTaggedPointers(t *testing.T) {
	// Structure using counter-tagged offsets (not off-holders):
	// conservative GC cannot see the links, a filter function can —
	// the scenario filter functions exist for (§4.5.1).
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	r := h.Region()

	const n = 100
	var prev uint64
	for i := 0; i < n; i++ {
		off := hd.Malloc(64)
		r.Store(off, pptr.PackTag(uint64(i), prev)) // tagged next
		r.Store(off+8, uint64(i))
		r.FlushRange(off, 16)
		r.Fence()
		prev = off
	}
	h.SetRoot(0, prev)

	filter := func(g *GC, off uint64) {
		_, next := pptr.UnpackTag(r.Load(off))
		if next != 0 {
			g.Visit(next, nil) // child uses the same filter via recursion
		}
	}
	// Make the filter self-recursive.
	var nodeFilter Filter
	nodeFilter = func(g *GC, off uint64) {
		_, next := pptr.UnpackTag(r.Load(off))
		if next != 0 {
			g.Visit(next, nodeFilter)
		}
	}
	_ = filter

	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}

	// First, demonstrate the failure mode: conservative tracing sees only
	// the head node.
	h.GetRoot(0, nil)
	if blocks, _ := h.Trace(); blocks != 1 {
		t.Fatalf("conservative trace found %d blocks, want 1 (tagged links invisible)", blocks)
	}

	// With the filter, the whole chain survives recovery.
	h.GetRoot(0, nodeFilter)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != n {
		t.Fatalf("filtered recovery reachable = %d, want %d", stats.ReachableBlocks, n)
	}
}

func TestConservativeFalsePositiveLeaksSafely(t *testing.T) {
	// A value word that happens to look like an off-holder makes a freed
	// block appear "in use". Per the paper this may leak memory but must
	// never compromise safety: the block is treated as allocated.
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	r := h.Region()

	victim := hd.Malloc(64)
	hd.Free(victim)

	hdr := hd.Malloc(16)
	r.Store(hdr, pptr.Pack(hdr, victim)) // stale-looking "pointer"
	r.FlushRange(hdr, 8)
	r.Fence()
	h.SetRoot(0, hdr)

	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 2 {
		t.Fatalf("reachable = %d, want 2 (header + false positive)", stats.ReachableBlocks)
	}
	// Safety: the falsely-retained block is never handed out again.
	hd2 := h.NewHandle()
	for i := 0; i < 10000; i++ {
		if off := hd2.Malloc(64); off == victim {
			t.Fatal("false-positive block was re-allocated")
		}
	}
}

func TestRecoverIdempotent(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 200, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	s1, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	s2, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if s1.ReachableBlocks != s2.ReachableBlocks {
		t.Fatalf("recovery not idempotent: %d then %d reachable", s1.ReachableBlocks, s2.ReachableBlocks)
	}
	if len(walkList(h, 0)) != 200 {
		t.Fatal("list damaged by double recovery")
	}
}

func TestRecoverCrashDuringRecoveryRetries(t *testing.T) {
	// The heap stays dirty throughout recovery: crashing mid-recovery and
	// recovering again must converge to the same state.
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 150, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	if h.Region().Load(offDirty) == 0 {
		t.Fatal("dirty flag lost in crash")
	}
	h.GetRoot(0, nil)
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	// Crash again immediately (recovery's own writes partially persisted
	// via the final flush) and recover once more.
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 150 {
		t.Fatalf("reachable = %d after re-crash, want 150", stats.ReachableBlocks)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverInvalidatesHandles(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	hd.Malloc(64)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale handle must panic after recovery")
		}
	}()
	hd.Malloc(64)
}

func TestRandomizedCrashRecovery(t *testing.T) {
	// Property: build a random pointer graph with durable writes, crash
	// at an arbitrary operation boundary, recover, and check that
	// (i) everything transitively reachable from the root survived,
	// (ii) allocator invariants hold, (iii) fresh allocations never
	// collide with survivors.
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		h := crashHeap(t, float64(trial%3)*0.5) // evict prob 0, 0.5, 1.0
		hd := h.NewHandle()
		r := h.Region()

		// Allocate a pool of nodes, each with up to 3 off-holder slots.
		const pool = 300
		nodes := make([]uint64, pool)
		for i := range nodes {
			off := hd.Malloc(64)
			if off == 0 {
				t.Fatal("OOM")
			}
			nodes[i] = off
			//pmemvet:ignore fresh block: private to this goroutine until a later Store links it
			r.Zero(off, 64)
		}
		// Wire random edges.
		for i, off := range nodes {
			for s := uint64(0); s < 3; s++ {
				if rng.Intn(2) == 0 {
					target := nodes[rng.Intn(pool)]
					if target != off+s*8 && target != off {
						r.Store(off+s*8, pptr.Pack(off+s*8, target))
					}
				}
			}
			r.FlushRange(off, 64)
			if i%16 == 0 {
				r.Fence()
			}
		}
		r.Fence()
		rootNode := nodes[rng.Intn(pool)]
		h.SetRoot(0, rootNode)

		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		h.GetRoot(0, nil)
		if _, err := h.Recover(); err != nil {
			t.Fatal(err)
		}

		// Compute expected reachability over the surviving memory.
		reach := map[uint64]bool{}
		var stack []uint64
		stack = append(stack, rootNode)
		for len(stack) > 0 {
			off := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[off] {
				continue
			}
			reach[off] = true
			for s := uint64(0); s < 3; s++ {
				if tgt, ok := pptr.Unpack(off+s*8, r.Load(off+s*8)); ok {
					if !reach[tgt] {
						stack = append(stack, tgt)
					}
				}
			}
		}

		// Fresh allocations must avoid every reachable block.
		hd2 := h.NewHandle()
		for i := 0; i < 5000; i++ {
			off := hd2.Malloc(64)
			if off == 0 {
				t.Fatal("OOM after recovery")
			}
			if reach[off] {
				t.Fatalf("trial %d: reachable block %#x re-allocated", trial, off)
			}
		}
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRecoveryStatsPopulated(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 100, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBytes != 100*64 {
		t.Fatalf("ReachableBytes = %d, want %d", stats.ReachableBytes, 100*64)
	}
	if stats.Duration <= 0 {
		t.Fatal("Duration not measured")
	}
	if stats.PartialSBs == 0 && stats.FullSBs == 0 {
		t.Fatal("sweep found no superblocks holding the list")
	}
}
