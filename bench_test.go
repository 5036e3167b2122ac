// Repository-level benchmarks: one testing.B benchmark per figure of the
// paper's evaluation (Fig. 5a–5f, Fig. 6a–6b) plus the ablations called out
// in DESIGN.md. Run them all with
//
//	go test -bench=. -benchmem
//
// Units follow the paper where possible: custom metrics report Mops/s
// (Fig. 5c), Kops/s (Fig. 5f) or ns/block (Fig. 6). The cmd/ tools print
// the full thread sweeps; these benchmarks give the per-allocator
// comparison at a fixed thread count under `go test` so the whole
// evaluation regenerates from one command.
package repro_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/ycsb"
)

// benchThreads is the fixed thread count for figure benchmarks; sweeps are
// the cmd tools' job.
func benchThreads() int {
	t := runtime.GOMAXPROCS(0)
	if t > 8 {
		t = 8
	}
	if t < 2 {
		t = 2
	}
	return t
}

// split divides b.N into (iterations, batch) with a bounded live window.
func split(n int) (iters, batch int) {
	const maxBatch = 10000
	if n <= maxBatch {
		return 1, n
	}
	return (n + maxBatch - 1) / maxBatch, maxBatch
}

func forEachAllocator(b *testing.B, names []string, heap uint64,
	run func(b *testing.B, a alloc.Allocator)) {
	factories := bench.Factories(bench.DefaultNVM)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			a, err := factories[name](heap)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			run(b, a)
		})
	}
}

// BenchmarkFig5aThreadtest: per-thread batched alloc/free of 64 B objects.
func BenchmarkFig5aThreadtest(b *testing.B) {
	t := benchThreads()
	forEachAllocator(b, bench.AllocNames, 512<<20, func(b *testing.B, a alloc.Allocator) {
		iters, batch := split(b.N)
		b.ResetTimer()
		res := bench.Threadtest(a, t, iters, batch, 64)
		b.ReportMetric(res.Mops(), "Mops/s")
	})
}

// BenchmarkFig5bShbench: stress test with sizes 64–400 B skewed small.
func BenchmarkFig5bShbench(b *testing.B) {
	t := benchThreads()
	forEachAllocator(b, bench.AllocNames, 512<<20, func(b *testing.B, a alloc.Allocator) {
		b.ResetTimer()
		res := bench.Shbench(a, t, b.N)
		b.ReportMetric(res.Mops(), "Mops/s")
	})
}

// BenchmarkFig5cLarson: the bleeding benchmark; the paper reports M ops/s.
func BenchmarkFig5cLarson(b *testing.B) {
	t := benchThreads()
	forEachAllocator(b, bench.AllocNames, 512<<20, func(b *testing.B, a alloc.Allocator) {
		cfg := bench.DefaultLarson()
		cfg.OpsPerTh = b.N
		b.ResetTimer()
		res := bench.Larson(a, t, cfg)
		b.ReportMetric(res.Mops(), "Mops/s")
	})
}

// BenchmarkFig5cLarsonMedium: the in-text variant with sizes up to 2048 B,
// where the paper saw Makalu collapse.
func BenchmarkFig5cLarsonMedium(b *testing.B) {
	t := benchThreads()
	forEachAllocator(b, bench.AllocNames, 1<<30, func(b *testing.B, a alloc.Allocator) {
		cfg := bench.DefaultLarson()
		cfg.MaxSize = 2048
		cfg.OpsPerTh = b.N
		b.ResetTimer()
		res := bench.Larson(a, t, cfg)
		b.ReportMetric(res.Mops(), "Mops/s")
	})
}

// BenchmarkFig5dProdcon: producer/consumer pairs over M&S queues.
func BenchmarkFig5dProdcon(b *testing.B) {
	pairs := benchThreads() / 2
	if pairs < 1 {
		pairs = 1
	}
	forEachAllocator(b, bench.AllocNames, 512<<20, func(b *testing.B, a alloc.Allocator) {
		b.ResetTimer()
		res := bench.Prodcon(a, pairs, b.N, 64)
		b.ReportMetric(res.Mops(), "Mops/s")
	})
}

// BenchmarkFig5eVacation: the OLTP application, persistent allocators only.
func BenchmarkFig5eVacation(b *testing.B) {
	t := benchThreads()
	forEachAllocator(b, bench.PersistentAllocNames, 1<<30, func(b *testing.B, a alloc.Allocator) {
		cfg := bench.DefaultVacation()
		cfg.Vac.Relations = 4096
		cfg.TxPerThread = b.N
		b.ResetTimer()
		res := bench.Vacation(a, t, cfg)
		b.ReportMetric(res.Kops(), "Ktxn/s")
	})
}

// BenchmarkFig5fMemcachedA: YCSB workload A (50% reads / 50% updates).
func BenchmarkFig5fMemcachedA(b *testing.B) {
	benchMemcached(b, ycsb.WorkloadA(20000))
}

// BenchmarkFig5fMemcachedB: the in-text read-dominant workload B (95/5).
func BenchmarkFig5fMemcachedB(b *testing.B) {
	benchMemcached(b, ycsb.WorkloadB(20000))
}

// BenchmarkFig5fMemcachedT: the cache-expiration extension workload —
// workload A's mix with half the updates writing records that expire, plus
// inline reclamation, so the allocator sees the full allocate/expire/reclaim
// lifecycle.
func BenchmarkFig5fMemcachedT(b *testing.B) {
	benchMemcached(b, ycsb.WorkloadT(20000))
}

// BenchmarkGetNoTTL / BenchmarkGetWithTTL prove the lazy-expiry check is
// free on the read hot path: identical allocs/op (run with -benchmem), the
// only extra work for a TTL'd record being one persisted-word load and a
// clock read.
func BenchmarkGetNoTTL(b *testing.B) {
	benchGetTTL(b, false)
}

func BenchmarkGetWithTTL(b *testing.B) {
	benchGetTTL(b, true)
}

func benchGetTTL(b *testing.B, ttl bool) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	a := h.AsAllocator()
	defer a.Close()
	hd := a.NewHandle()
	st, _ := kvstore.Open(a, hd, 1024)
	key, val := []byte("bench-key"), []byte("bench-value-of-plausible-size-xx")
	if ttl {
		// A deadline far in the future: the expiry comparison runs on
		// every Get but never fires.
		if !st.SetBytesExpire(hd, key, val, st.Now()+int64(time.Hour/time.Millisecond)) {
			b.Fatal("OOM")
		}
	} else if !st.SetBytes(hd, key, val) {
		b.Fatal("OOM")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := st.GetBytes(key); !ok {
			b.Fatal("hot key missing")
		}
	}
}

func benchMemcached(b *testing.B, w ycsb.Workload) {
	t := benchThreads()
	forEachAllocator(b, bench.AllocNames, 1<<30, func(b *testing.B, a alloc.Allocator) {
		cfg := bench.MemcachedConfig{Workload: w, OpsPerTh: b.N}
		b.ResetTimer()
		res := bench.Memcached(a, t, cfg)
		b.ReportMetric(res.Kops(), "Kops/s")
	})
}

// BenchmarkFig6aGCStack: recovery time vs reachable blocks, Treiber stack.
func BenchmarkFig6aGCStack(b *testing.B) {
	for _, n := range []int{10000, 50000, 200000} {
		b.Run(sizeName(n), func(b *testing.B) {
			var perBlock float64
			for i := 0; i < b.N; i++ {
				res, err := bench.GCStack(n, true, 1)
				if err != nil {
					b.Fatal(err)
				}
				perBlock = float64(res.GCTime.Nanoseconds()) / float64(res.ReachableBlocks)
			}
			b.ReportMetric(perBlock, "ns/block")
		})
	}
}

// BenchmarkFig6bGCTree: recovery time vs reachable blocks, N&M BST.
func BenchmarkFig6bGCTree(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		b.Run(sizeName(n), func(b *testing.B) {
			var perBlock float64
			for i := 0; i < b.N; i++ {
				res, err := bench.GCTree(n)
				if err != nil {
					b.Fatal(err)
				}
				perBlock = float64(res.GCTime.Nanoseconds()) / float64(res.ReachableBlocks)
			}
			b.ReportMetric(perBlock, "ns/block")
		})
	}
}

// BenchmarkAblationConservativeGC (A1): filter vs conservative tracing on
// the stack recovery.
func BenchmarkAblationConservativeGC(b *testing.B) {
	for _, mode := range []struct {
		name   string
		filter bool
	}{{"filter", true}, {"conservative", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var perBlock float64
			for i := 0; i < b.N; i++ {
				res, err := bench.GCStack(100000, mode.filter, 1)
				if err != nil {
					b.Fatal(err)
				}
				perBlock = float64(res.GCTime.Nanoseconds()) / float64(res.ReachableBlocks)
			}
			b.ReportMetric(perBlock, "ns/block")
		})
	}
}

// BenchmarkAblationFlushCost (A2): what persistence costs Ralloc during
// normal operation — the §1 claim is "almost nothing", so ralloc should be
// flat across flush latencies while makalu degrades.
func BenchmarkAblationFlushCost(b *testing.B) {
	for _, lat := range []struct {
		name string
		cfg  pmem.Config
	}{
		{"flush0", pmem.Config{}},
		{"flush120ns", bench.DefaultNVM},
		{"flush1us", pmem.Config{FlushLatency: 1000, FenceLatency: 100}},
	} {
		factories := bench.Factories(lat.cfg)
		for _, name := range []string{"ralloc", "makalu"} {
			b.Run(lat.name+"/"+name, func(b *testing.B) {
				a, err := factories[name](512 << 20)
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				iters, batch := split(b.N)
				b.ResetTimer()
				res := bench.Threadtest(a, 2, iters, batch, 64)
				b.ReportMetric(res.Mops(), "Mops/s")
			})
		}
	}
}

// BenchmarkAblationCacheReturn (A3): return-all (Ralloc's policy) vs
// return-half (Makalu's locality policy) on an overflow-heavy workload.
func BenchmarkAblationCacheReturn(b *testing.B) {
	for _, mode := range []struct {
		name string
		half bool
	}{{"return-all", false}, {"return-half", true}} {
		b.Run(mode.name, func(b *testing.B) {
			h, _, err := ralloc.Open("", ralloc.Config{
				SBRegion:   512 << 20,
				ReturnHalf: mode.half,
				CacheCap:   64,
				Pmem:       bench.DefaultNVM,
			})
			if err != nil {
				b.Fatal(err)
			}
			a := h.AsAllocator()
			defer a.Close()
			iters, batch := split(b.N)
			b.ResetTimer()
			res := bench.Threadtest(a, benchThreads(), iters, batch, 64)
			b.ReportMetric(res.Mops(), "Mops/s")
		})
	}
}

// BenchmarkExtensionParallelRecovery: the recovery engine at 1, 2 and 4
// workers on the Fig. 6a workload — the paper's §6.4 future work. (On a
// single-core host this measures the coordination overhead rather than
// speedup.)
func BenchmarkExtensionParallelRecovery(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			var perBlock float64
			for i := 0; i < b.N; i++ {
				res, err := bench.GCStack(100000, true, workers)
				if err != nil {
					b.Fatal(err)
				}
				perBlock = float64(res.GCTime.Nanoseconds()) / float64(res.ReachableBlocks)
			}
			b.ReportMetric(perBlock, "ns/block")
		})
	}
}

// BenchmarkMallocFreePair: the single-threaded fast path per allocator —
// the microcosm of the whole paper: ralloc ≈ lrmalloc despite persistence.
// loads/op counts the region words a pair reads (ralloc's Free reads none).
func BenchmarkMallocFreePair(b *testing.B) {
	forEachAllocator(b, bench.AllocNames, 64<<20, func(b *testing.B, a alloc.Allocator) {
		hd := a.NewHandle()
		warm := hd.Malloc(64)
		hd.Free(warm)
		loads := a.Region().Stats().Loads
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hd.Free(hd.Malloc(64))
		}
		b.ReportMetric(float64(a.Region().Stats().Loads-loads)/float64(b.N), "loads/op")
	})
}

func sizeName(n int) string {
	switch {
	case n >= 1000000:
		return itoa(n/1000000) + "M"
	case n >= 1000:
		return itoa(n/1000) + "K"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
