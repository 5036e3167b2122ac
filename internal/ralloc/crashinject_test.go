package ralloc

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/pptr"
)

// Mid-operation crash injection: the pmem StoreHook panics after a chosen
// number of stores, so the "power fails" inside malloc, free, cache drains,
// superblock initialization, region growth — anywhere, not just at
// operation boundaries. Recovery must still satisfy recoverability from
// whatever survived write-back.

type injectedCrash struct{ store int }

// runWithCrashAt builds a heap, durably constructs a base list, then runs a
// mutation phase with the hook armed to blow up at the k-th store. It
// returns the heap (post-simulated-crash) and how many nodes had been
// durably attached to root 1 before the explosion.
func runWithCrashAt(t *testing.T, k int, evict float64) (*Heap, int) {
	t.Helper()
	var countdown int
	armed := false
	cfg := Config{
		SBRegion:    8 << 20,
		GrowthChunk: 1 << 20,
		Pmem: pmem.Config{
			Mode:      pmem.ModeCrashSim,
			EvictProb: evict,
			Seed:      int64(k) + 1,
			StoreHook: func() {
				if !armed {
					return
				}
				countdown--
				if countdown == 0 {
					panic(injectedCrash{k})
				}
			},
		},
	}
	h, _, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd := h.NewHandle()
	buildList(t, h, hd, 50, 0) // durable base structure on root 0

	attached := 0
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return // k was larger than the phase's store count
			}
			if _, ok := r.(injectedCrash); !ok {
				panic(r) // a real bug, re-raise
			}
		}()
		countdown = k
		armed = true
		r := h.Region()
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
	}()
	armed = false
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, attached
}

func TestCrashInjectionSweep(t *testing.T) {
	// Crash after 1, 2, 3, ... stores into the mutation phase, covering
	// every store boundary of the first operations and then coarser
	// strides deep into the phase. Each crash point is recovered once per
	// worker count, with the same checks and the same counters.
	points := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50,
		80, 100, 130, 210, 340, 550, 890, 900, 1440, 2330}
	for _, k := range points {
		var want RecoveryStats
		for _, workers := range workerCounts {
			h, attached := runWithCrashAt(t, k, 0)
			h.GetRoot(0, nil)
			h.GetRoot(1, nil)
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
		h, _ := runWithCrashAt(t, k, 0.5)
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
