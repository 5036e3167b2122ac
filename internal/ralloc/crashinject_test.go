package ralloc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/pmem"
	"repro/internal/pptr"
)

// Mid-operation crash injection: the pmem StoreHook panics after a chosen
// number of stores, so the "power fails" inside malloc, free, cache drains,
// superblock initialization, region growth — anywhere, not just at
// operation boundaries. Recovery must still satisfy recoverability from
// whatever survived write-back.

// runWithCrashAt builds a heap, durably constructs a base list and roots a
// 3-superblock run, then runs a mutation phase with the hook armed to blow up
// at the k-th store. The phase begins with a large free (the rooted run,
// unrooted first) and a large malloc served from the freed run (2
// superblocks in its place, rooted in turn), then churns. It returns the heap
// (post-simulated-crash), how many nodes had been durably attached to root 1
// before the explosion, and the run's offset.
func runWithCrashAt(t *testing.T, k int, evict float64) (*Heap, int, uint64) {
	t.Helper()
	var crash alloctest.Crasher
	cfg := Config{
		SBRegion:    8 << 20,
		GrowthChunk: 1 << 20,
		Pmem: pmem.Config{
			Mode:      pmem.ModeCrashSim,
			EvictProb: evict,
			Seed:      int64(k) + 1,
			StoreHook: crash.Hook,
		},
	}
	h, _, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd := h.NewHandle()
	buildList(t, h, hd, 50, 0) // durable base structure on root 0
	r := h.Region()
	// rootRun roots the block at off of n superblocks, holding n.
	rootRun := func(off, n uint64) {
		r.Store(off, n)
		r.Flush(off)
		r.Fence()
		h.SetRoot(2, off)
	}
	run := hd.Malloc(3 * SuperblockBytes)
	if run == 0 {
		t.Fatal("large OOM")
	}
	rootRun(run, 3)

	attached := 0
	crash.At(k, func() {
		h.SetRoot(2, 0)
		hd.Free(run)
		if b := hd.Malloc(2 * SuperblockBytes); b != run {
			panic(fmt.Sprintf("a 2-superblock run at %#x, not in the freed run at %#x", b, run))
		}
		rootRun(run, 2)
		var prev uint64
		for i := 0; i < 200; i++ {
			// Churn: allocate, sometimes free.
			tmp := hd.Malloc(48)
			if i%3 == 0 {
				hd.Free(tmp)
			}
			// Durably extend a second list on root 1.
			n := hd.Malloc(64)
			if prev == 0 {
				r.Store(n, pptr.Nil)
			} else {
				r.Store(n, pptr.Pack(n, prev))
			}
			r.Store(n+8, uint64(i))
			r.FlushRange(n, 16)
			r.Fence()
			h.SetRoot(1, n)
			prev = n
			attached = i + 1
		}
	})
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, attached, run
}

func TestCrashInjectionSweep(t *testing.T) {
	// Crash after 1, 2, 3, ... stores into the mutation phase, covering
	// every store boundary of the first operations — the large free and
	// the large malloc take the first 23 — and then coarser strides deep
	// into the phase. Each crash point is recovered once per worker count,
	// with the same checks and the same counters.
	var points []int
	for k := 1; k <= 24; k++ {
		points = append(points, k)
	}
	points = append(points, 30, 50, 80, 100, 130, 210, 340, 550, 890, 900, 1440, 2330)
	for _, k := range points {
		var want RecoveryStats
		for _, workers := range workerCounts {
			h, attached, run := runWithCrashAt(t, k, 0)
			h.GetRoot(0, nil)
			h.GetRoot(1, nil)
			h.GetRoot(2, LeafFilter)
			stats, err := h.RecoverParallel(workers)
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if workers == workerCounts[0] {
				want = counters(stats)
			}
			if got := counters(stats); got != want {
				t.Fatalf("k=%d workers=%d: counters %+v, want %+v as with one worker", k, workers, got, want)
			}
			// Base list must be fully intact.
			if got := len(walkList(h, 0)); got != 50 {
				t.Fatalf("k=%d workers=%d: base list has %d nodes, want 50", k, workers, got)
			}
			// The durable prefix of the second list must survive: the walk
			// from root 1 sees consecutive descending indices.
			r := h.Region()
			second := walkList(h, 1)
			if len(second) > attached {
				t.Fatalf("k=%d workers=%d: second list longer (%d) than ever attached (%d)",
					k, workers, len(second), attached)
			}
			for i, off := range second {
				want := uint64(len(second) - 1 - i)
				if got := r.Load(off + 8); got != want {
					t.Fatalf("k=%d workers=%d: second list node %d has value %d, want %d",
						k, workers, i, got, want)
				}
			}
			// Root 2 holds the 3-superblock run or the 2-superblock one in
			// its place, whole, or nothing.
			if b := h.GetRoot(2, LeafFilter); b != 0 {
				idx, _ := h.lay.descIndexOf(b)
				if n := r.Load(h.lay.descOff(idx) + dOffNumSB); b != run || r.Load(b) != n {
					t.Fatalf("k=%d workers=%d: root 2 holds %#x, a run of %d superblocks holding %d", k, workers, b, n, r.Load(b))
				}
			}
			// Allocator must be fully consistent and usable.
			if _, err := h.CheckInvariants(); err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			hd := h.NewHandle()
			for i := 0; i < 500; i++ {
				if hd.Malloc(64) == 0 {
					t.Fatalf("k=%d workers=%d: OOM after recovery", k, workers)
				}
			}
		}
	}
}

func TestCrashInjectionWithEviction(t *testing.T) {
	// Same sweep, but half the unflushed lines happen to persist —
	// recovery must cope with *more* than the program flushed, too.
	for _, k := range []int{3, 17, 64, 257, 1025} {
		h, _, _ := runWithCrashAt(t, k, 0.5)
		h.GetRoot(0, nil)
		h.GetRoot(1, nil)
		if _, err := h.Recover(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := len(walkList(h, 0)); got != 50 {
			t.Fatalf("k=%d: base list has %d nodes, want 50", k, got)
		}
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestRecoverSurvivesACrashAtEveryStore cuts recovery itself short: the
// zoo's recovery is crashed at each of its stores in turn (a stride of them
// under -short), at one worker and at four, and the recovery after the cut
// must rebuild what an uncut one does: the same counters, clean invariants,
// the rooted list and large run intact. Each cut recovery starts from the
// image the previous check left, a recovered heap, whose recovery makes as
// many stores as the zoo's first one (checked at one worker).
func TestRecoverSurvivesACrashAtEveryStore(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var crash alloctest.Crasher
			cfg := zooConfig(4<<20, pmem.ModeCrashSim) // 48 superblocks used
			cfg.Pmem.StoreHook = crash.Hook
			h, _, err := Open("", cfg)
			if err != nil {
				t.Fatal(err)
			}
			populateZoo(t, h)
			region := h.Region()
			crashRegion := func() {
				if err := region.Crash(); err != nil {
					t.Fatal(err)
				}
			}
			// Precise filters keep the two traces each crash point costs
			// short: a list node holds one pointer, the large run none.
			var next Filter
			next = func(g *GC, off uint64) {
				if to, ok := pptr.Unpack(off, region.Load(off)); ok {
					g.Visit(to, next)
				}
			}
			attach := func() *Heap {
				t.Helper()
				h, dirty, err := Attach(region, zooConfig(0, pmem.ModeCrashSim))
				if err != nil || !dirty {
					t.Fatalf("attach: dirty=%v err=%v", dirty, err)
				}
				h.GetRoot(0, next)
				h.GetRoot(1, func(*GC, uint64) {})
				return h
			}
			// recoverAll recovers the crashed image uncut and checks the heap
			// it rebuilt; it returns the counters and how many stores
			// recovery made. It writes back only the descriptors it retires,
			// so the crash after a cut recovery also drops the lists, anchors
			// and chains recoverAll rebuilt.
			recoverAll := func() (RecoveryStats, int) {
				t.Helper()
				h := attach()
				crash.Arm(math.MaxInt)
				stats, err := h.RecoverParallel(workers)
				stores := crash.Stores()
				crash.Arm(0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				list := walkList(h, 0)
				if len(list) != 1500 {
					t.Fatalf("rooted list has %d nodes, want 1500", len(list))
				}
				for i, off := range list {
					if v := region.Load(off + 8); v != uint64(1000+1499-i) {
						t.Fatalf("list node %d holds %d, want %d", i, v, 1000+1499-i)
					}
				}
				if v := region.Load(h.GetRoot(1, nil)); v != 0xB16B10C {
					t.Fatalf("live large run holds %#x", v)
				}
				return counters(stats), stores
			}
			crashRegion()
			want, stores := recoverAll()
			if _, again := recoverAll(); workers == 1 && again != stores {
				t.Fatalf("recovering a recovered image made %d stores, the zoo's recovery %d", again, stores)
			}
			for k := 1; k <= stores; k += stride {
				h := attach()
				cut := crash.At(k, func() { h.RecoverParallel(workers) })
				if !cut && workers == 1 {
					t.Fatalf("store %d of %d did not cut recovery short", k, stores)
				}
				crashRegion()
				if got, _ := recoverAll(); got != want {
					t.Fatalf("crash at store %d of %d: the next recovery found\n%+v, want\n%+v", k, stores, got, want)
				}
			}
		})
	}
}
