package bench

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

// Small-scale smoke runs of every figure's workload against every
// allocator: the harness itself must be correct before its numbers mean
// anything.

func TestThreadtestAllAllocators(t *testing.T) {
	for name, f := range Factories(pmem.Config{}) {
		a, err := f(64 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Threadtest(a, 2, 5, 1000, 64)
		if res.Ops != 2*5*1000*2 {
			t.Fatalf("%s: ops = %d", name, res.Ops)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", name)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

func TestShbenchAllAllocators(t *testing.T) {
	for name, f := range Factories(pmem.Config{}) {
		a, err := f(64 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Shbench(a, 2, 200)
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", name)
		}
		a.Close()
	}
}

func TestShbenchSizeDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		s := ShbenchSizes(rng)
		if s < 64 || s > 400 {
			t.Fatalf("size %d out of [64,400]", s)
		}
		if s < 150 {
			small++
		} else if s > 300 {
			large++
		}
	}
	if small <= large {
		t.Fatalf("sizes not skewed small: %d small vs %d large", small, large)
	}
}

func TestLarsonAllAllocators(t *testing.T) {
	cfg := LarsonConfig{Live: 100, MinSize: 64, MaxSize: 400, Handoff: 500, OpsPerTh: 2000}
	for name, f := range Factories(pmem.Config{}) {
		a, err := f(64 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Larson(a, 2, cfg)
		if res.Ops != 2*2000 {
			t.Fatalf("%s: ops = %d", name, res.Ops)
		}
		a.Close()
	}
}

func TestProdconAllAllocators(t *testing.T) {
	for name, f := range Factories(pmem.Config{}) {
		a, err := f(64 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Prodcon(a, 2, 4000, 64)
		if res.Ops == 0 {
			t.Fatalf("%s: no ops", name)
		}
		a.Close()
	}
}

func TestVacationPersistentAllocators(t *testing.T) {
	cfg := VacationConfig{TxPerThread: 300, CancelFrac: 0.25}
	cfg.Vac.Relations = 512
	fs := Factories(pmem.Config{})
	for _, name := range PersistentAllocNames {
		a, err := fs[name](128 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Vacation(a, 2, cfg)
		if res.Ops == 0 {
			t.Fatalf("%s: no transactions", name)
		}
		a.Close()
	}
}

func TestMemcachedAllAllocators(t *testing.T) {
	cfg := MemcachedConfig{Workload: DefaultMemcached(2000).Workload, OpsPerTh: 1000}
	cfg.Workload.Records = 2000
	for name, f := range Factories(pmem.Config{}) {
		a, err := f(256 << 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := Memcached(a, 2, cfg)
		if res.Ops != 2*1000 {
			t.Fatalf("%s: ops = %d", name, res.Ops)
		}
		a.Close()
	}
}

func TestMemcachedHashWorkload(t *testing.T) {
	// The hash-field workload — the object layer's measurable workload
	// (ISSUE 5 satellite) — must run in library mode.
	w := ycsb.WorkloadH(200)
	w.Fields = 4
	cfg := MemcachedConfig{Workload: w, OpsPerTh: 500}
	f := Factories(pmem.Config{})["ralloc"]
	a, err := f(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res := Memcached(a, 2, cfg); res.Ops != 2*500 {
		t.Fatalf("library ops = %d", res.Ops)
	}
	a.Close()
}

func TestGCStackLinearity(t *testing.T) {
	small, err := GCStack(2000, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := GCStack(300000, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.ReachableBlocks != 2001 || big.ReachableBlocks != 300001 {
		t.Fatalf("reachable = %d / %d", small.ReachableBlocks, big.ReachableBlocks)
	}
	// Linearity is asserted on deterministic work counters, not wall-clock
	// ratios (which flake under a fixed per-recovery sweep floor plus
	// scheduler noise). 150× the nodes must do ~150× the trace work: each
	// stack node's filter issues a constant number of visits.
	if small.TraceWork == 0 || big.TraceWork == 0 {
		t.Fatalf("trace work not recorded: %d / %d", small.TraceWork, big.TraceWork)
	}
	ratio := float64(big.TraceWork) / float64(small.TraceWork)
	if ratio < 100 || ratio > 225 {
		t.Fatalf("trace work not linear in nodes: %d / %d (ratio %.1f, want ~150)",
			big.TraceWork, small.TraceWork, ratio)
	}
	// The bigger heap sweeps at least as many superblock units.
	if big.SweepUnits < small.SweepUnits || big.SweepUnits == 0 {
		t.Fatalf("sweep units = %d small vs %d big", small.SweepUnits, big.SweepUnits)
	}
	// The timing decomposition must cover the total.
	for _, r := range []GCResult{small, big} {
		if r.TraceTime < 0 || r.SweepTime < 0 || r.TraceTime+r.SweepTime > r.GCTime {
			t.Fatalf("inconsistent GC time split: trace %v + sweep %v vs total %v",
				r.TraceTime, r.SweepTime, r.GCTime)
		}
	}
}

func TestGCTreeCounts(t *testing.T) {
	res, err := GCTree(3000)
	if err != nil {
		t.Fatal(err)
	}
	// 5 sentinels + 2 blocks per key.
	if res.ReachableBlocks != 5+2*3000 {
		t.Fatalf("reachable = %d, want %d", res.ReachableBlocks, 5+2*3000)
	}
}

func TestGCStackConservativeAlsoExact(t *testing.T) {
	// Stack node links are off-holders: conservative tracing should find
	// the same node set (modulo false positives, absent here).
	res, err := GCStack(2000, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReachableBlocks != 2001 {
		t.Fatalf("conservative reachable = %d, want 2001", res.ReachableBlocks)
	}
}

func TestSweep(t *testing.T) {
	fs := Factories(pmem.Config{})
	s, err := Sweep(fs["ralloc"], "ralloc", 64<<20, []int{1, 2}, func(a alloc.Allocator, tt int) Result {
		return Threadtest(a, tt, 2, 100, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || s.Points[0].Threads != 1 || s.Points[1].Threads != 2 {
		t.Fatalf("sweep points = %+v", s.Points)
	}
}

func TestContendedFreeConfigs(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		shards    int
		unbatched bool
	}{
		{"single-shard-unbatched", 1, true},
		{"sharded-batched", 0, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			res, err := ContendedFree(cfg.shards, cfg.unbatched, 2, 8000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 2*8000 {
				t.Fatalf("ops = %d, want %d", res.Ops, 2*8000)
			}
		})
	}
}

// BenchmarkContendedFree compares the paper-faithful configuration (one
// global partial list per class, one anchor CAS per freed block) against the
// sharded+batched one on the all-remote-free prod-con workload. Run with
// -cpu 8 (or more) to reproduce the contended regime the sharding targets:
//
//	go test ./internal/bench -bench ContendedFree -cpu 8 -benchtime 3x
func BenchmarkContendedFree(b *testing.B) {
	pairs := runtime.GOMAXPROCS(0) / 2
	if pairs < 1 {
		pairs = 1
	}
	const totalObjs = 400000
	for _, cfg := range []struct {
		name      string
		shards    int
		unbatched bool
	}{
		{"shards=1/unbatched", 1, true},
		{"shards=1/batched", 1, false},
		{"shards=auto/batched", 0, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ContendedFree(cfg.shards, cfg.unbatched, pairs, totalObjs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDefaultThreadsMonotone(t *testing.T) {
	ts := DefaultThreads()
	if len(ts) == 0 {
		t.Fatal("empty grid")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("grid not increasing: %v", ts)
		}
	}
}
