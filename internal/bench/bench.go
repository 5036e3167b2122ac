// Package bench implements the paper's evaluation workloads (§6.2–§6.4) and
// the thread-sweep harness that regenerates each figure's data series.
//
//   - Threadtest (Fig. 5a): per-thread batched alloc/free of 64 B objects.
//   - Shbench (Fig. 5b): allocator stress test, sizes 64–400 B skewed small.
//   - Larson (Fig. 5c): server-style "bleeding" with cross-thread frees and
//     thread handoff.
//   - Prod-con (Fig. 5d): producer/consumer pairs over M&S queues.
//   - Vacation (Fig. 5e) and Memcached+YCSB (Fig. 5f) via their packages.
//   - Recovery GC time (Fig. 6) via GCStack/GCTree.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/dstruct"
	"repro/internal/jemal"
	"repro/internal/lrmalloc"
	"repro/internal/makalu"
	"repro/internal/pmdk"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Factory builds a fresh allocator over a heap of roughly the given size.
type Factory func(heapSize uint64) (alloc.Allocator, error)

// AllocNames lists the evaluated allocators in the paper's order.
var AllocNames = []string{"ralloc", "makalu", "pmdk", "lrmalloc", "jemalloc"}

// PersistentAllocNames lists only the persistent ones (used by Vacation,
// which the paper runs with persistent allocators only).
var PersistentAllocNames = []string{"ralloc", "makalu", "pmdk"}

// Factories returns a factory per allocator. pcfg sets the simulated-NVM
// cost model (flush/fence latency); persistent allocators feel it, the
// transient ones never flush.
func Factories(pcfg pmem.Config) map[string]Factory {
	return map[string]Factory{
		"ralloc": func(size uint64) (alloc.Allocator, error) {
			h, _, err := ralloc.Open("", ralloc.Config{SBRegion: size, Pmem: pcfg})
			if err != nil {
				return nil, err
			}
			return h.AsAllocator(), nil
		},
		"lrmalloc": func(size uint64) (alloc.Allocator, error) {
			return lrmalloc.New(ralloc.Config{SBRegion: size, Pmem: pcfg})
		},
		"makalu": func(size uint64) (alloc.Allocator, error) {
			return makalu.New(makalu.Config{HeapSize: size, Pmem: pcfg})
		},
		"pmdk": func(size uint64) (alloc.Allocator, error) {
			return pmdk.New(pmdk.Config{HeapSize: size, Pmem: pcfg})
		},
		"jemalloc": func(size uint64) (alloc.Allocator, error) {
			return jemal.New(jemal.Config{HeapSize: size, Pmem: pcfg})
		},
	}
}

// DefaultNVM is the cost model used by the figure benchmarks: a modest
// per-line write-back latency approximating Optane clwb+queue costs. The
// shape of every figure comes from flush/fence *counts* and synchronization;
// this constant only sets the scale.
var DefaultNVM = pmem.Config{FlushLatency: 120 * time.Nanosecond, FenceLatency: 30 * time.Nanosecond}

// Result is one benchmark sample.
type Result struct {
	Allocator string
	Threads   int
	Ops       uint64
	Elapsed   time.Duration
}

// Seconds returns the elapsed wall time in seconds (the paper's unit for
// Figures 5a, 5b, 5d, 5e).
func (r Result) Seconds() float64 { return r.Elapsed.Seconds() }

// Mops returns throughput in million operations per second (Fig. 5c's
// unit).
func (r Result) Mops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// Kops returns throughput in thousand operations per second (Fig. 5f's
// unit).
func (r Result) Kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e3
}

// runThreads spawns t goroutines pinned to OS threads (mirroring the
// paper's per-core pinning) and times body across all of them.
func runThreads(t int, body func(id int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < t; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			body(id)
		}(id)
	}
	wg.Wait()
	return time.Since(start)
}

// ----------------------------------------------------------------------
// Threadtest (Fig. 5a). Hoard's classic: in every iteration each thread
// allocates a batch of 64-byte objects and then frees them, with no sharing
// between threads.

// Threadtest runs iters iterations of alloc/free batches of objsPerIter
// objects of the given size on each of t threads.
func Threadtest(a alloc.Allocator, t, iters, objsPerIter int, size uint64) Result {
	ops := uint64(0)
	elapsed := runThreads(t, func(id int) {
		hd := a.NewHandle()
		objs := make([]uint64, objsPerIter)
		for it := 0; it < iters; it++ {
			for i := range objs {
				objs[i] = hd.Malloc(size)
				if objs[i] == 0 {
					panic(fmt.Sprintf("%s: threadtest OOM", a.Name()))
				}
			}
			for i := range objs {
				hd.Free(objs[i])
			}
		}
	})
	ops = uint64(t) * uint64(iters) * uint64(objsPerIter) * 2
	return Result{Allocator: a.Name(), Threads: t, Ops: ops, Elapsed: elapsed}
}

// ----------------------------------------------------------------------
// Shbench (Fig. 5b). MicroQuill's stress test: many objects of sizes 64–400
// bytes with smaller objects allocated more frequently, freed with a lag
// through a sliding window.

// ShbenchSizes draws a size in [64,400] skewed toward small values.
func ShbenchSizes(rng *rand.Rand) uint64 {
	r := rng.Float64()
	return 64 + uint64(336*r*r)
}

// Shbench runs iters window steps per thread.
func Shbench(a alloc.Allocator, t, iters int) Result {
	const window = 256
	const batch = 16
	elapsed := runThreads(t, func(id int) {
		hd := a.NewHandle()
		rng := rand.New(rand.NewSource(int64(id) + 1))
		ring := make([]uint64, 0, window+batch)
		for it := 0; it < iters; it++ {
			for i := 0; i < batch; i++ {
				off := hd.Malloc(ShbenchSizes(rng))
				if off == 0 {
					panic(fmt.Sprintf("%s: shbench OOM", a.Name()))
				}
				ring = append(ring, off)
			}
			if len(ring) >= window {
				for _, off := range ring[:batch] {
					hd.Free(off)
				}
				ring = append(ring[:0], ring[batch:]...)
			}
		}
		for _, off := range ring {
			hd.Free(off)
		}
	})
	ops := uint64(t) * uint64(iters) * 2 * 16
	return Result{Allocator: a.Name(), Threads: t, Ops: ops, Elapsed: elapsed}
}

// ----------------------------------------------------------------------
// Larson (Fig. 5c). Larson & Krishnan's server simulation: each thread
// keeps a window of live objects, randomly replacing them; periodically the
// window "bleeds" to a fresh thread, so objects allocated by one thread are
// freed by another. Reported in ops/sec.

// LarsonConfig parameterizes the benchmark.
type LarsonConfig struct {
	Live     int    // live objects per thread (paper: 1000)
	MinSize  uint64 // paper: 64
	MaxSize  uint64 // paper: 400 (in-text variant: 2048)
	Handoff  int    // ops between thread handoffs (paper: 10^4 iterations)
	OpsPerTh int    // total replacements per thread chain
}

// DefaultLarson mirrors the paper's configuration at test scale.
func DefaultLarson() LarsonConfig {
	return LarsonConfig{Live: 1000, MinSize: 64, MaxSize: 400, Handoff: 10000, OpsPerTh: 50000}
}

// flusher is implemented by handles with thread caches: Flush models the
// cache destructor a cleanly exiting thread runs.
type flusher interface{ Flush() }

// Larson runs t thread chains.
func Larson(a alloc.Allocator, t int, cfg LarsonConfig) Result {
	elapsed := runThreads(t, func(id int) {
		slots := make([]uint64, cfg.Live)
		rng := rand.New(rand.NewSource(int64(id) + 42))
		remaining := cfg.OpsPerTh
		for remaining > 0 {
			// One "thread life": run Handoff ops, then hand the
			// window to a fresh handle (the bleeding pattern —
			// the old thread's objects are freed by the new one).
			hd := a.NewHandle()
			life := cfg.Handoff
			if life > remaining {
				life = remaining
			}
			for i := 0; i < life; i++ {
				k := rng.Intn(cfg.Live)
				if slots[k] != 0 {
					hd.Free(slots[k])
				}
				size := cfg.MinSize + uint64(rng.Int63n(int64(cfg.MaxSize-cfg.MinSize+1)))
				slots[k] = hd.Malloc(size)
				if slots[k] == 0 {
					panic(fmt.Sprintf("%s: larson OOM", a.Name()))
				}
			}
			// The exiting thread's cache destructor returns its
			// cached blocks; without this, every handoff strands a
			// cache and memory ratchets upward.
			if f, ok := hd.(flusher); ok {
				f.Flush()
			}
			remaining -= life
		}
		// Final cleanup by the last handle in the chain.
		hd := a.NewHandle()
		for _, off := range slots {
			if off != 0 {
				hd.Free(off)
			}
		}
	})
	ops := uint64(t) * uint64(cfg.OpsPerTh)
	return Result{Allocator: a.Name(), Threads: t, Ops: ops, Elapsed: elapsed}
}

// ----------------------------------------------------------------------
// Prod-con (Fig. 5d). t/2 producer/consumer pairs, each with a lock-free
// M&S queue: the producer allocates objects and enqueues pointers, the
// consumer dequeues and deallocates. Total objects is fixed, so per-pair
// load shrinks as threads grow (10^7·2/t in the paper).

// Prodcon runs pairs pairs moving totalObjs objects in aggregate.
func Prodcon(a alloc.Allocator, pairs int, totalObjs int, objSize uint64) Result {
	perPair := totalObjs / pairs
	if perPair == 0 {
		perPair = 1
	}
	qs := make([]*dstruct.Queue, pairs)
	setup := a.NewHandle()
	for i := range qs {
		qs[i], _ = dstruct.NewQueue(a, setup)
	}
	elapsed := runThreads(pairs*2, func(id int) {
		p := id / 2
		hd := a.NewHandle()
		if id%2 == 0 { // producer
			for i := 0; i < perPair; i++ {
				obj := hd.Malloc(objSize)
				if obj == 0 {
					panic(fmt.Sprintf("%s: prodcon OOM", a.Name()))
				}
				for !qs[p].Enqueue(hd, obj) {
				}
			}
		} else { // consumer
			g := qs[p].Guard(hd)
			for n := 0; n < perPair; {
				if obj, ok := qs[p].Dequeue(g); ok {
					hd.Free(obj)
					n++
				}
			}
		}
	})
	ops := uint64(pairs) * uint64(perPair) * 2
	return Result{Allocator: a.Name(), Threads: pairs * 2, Ops: ops, Elapsed: elapsed}
}

// ----------------------------------------------------------------------
// Sweep harness.

// Point is one (threads, result) sample of a series.
type Point struct {
	Threads int
	Result  Result
}

// Series is one allocator's curve in a figure.
type Series struct {
	Allocator string
	Points    []Point
}

// Sweep runs fn once per thread count with a fresh allocator each time.
func Sweep(factory Factory, name string, heapSize uint64, threads []int,
	fn func(a alloc.Allocator, t int) Result) (Series, error) {
	s := Series{Allocator: name}
	for _, t := range threads {
		a, err := factory(heapSize)
		if err != nil {
			return s, err
		}
		res := fn(a, t)
		if err := a.Close(); err != nil {
			return s, err
		}
		s.Points = append(s.Points, Point{Threads: t, Result: res})
	}
	return s, nil
}

// DefaultThreads is the sweep grid, scaled to the host.
func DefaultThreads() []int {
	max := runtime.GOMAXPROCS(0)
	grid := []int{1, 2, 4, 8, 16, 24, 32, 48, 64}
	var out []int
	for _, t := range grid {
		if t <= max {
			out = append(out, t)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
