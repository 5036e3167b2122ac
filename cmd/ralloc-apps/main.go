// Command ralloc-apps regenerates the application figures of the paper:
// Vacation (Fig. 5e, persistent allocators only, seconds) and Memcached
// with YCSB (Fig. 5f, K ops/sec; workload A by default, workload B for the
// in-text read-dominant comparison).
//
// Examples:
//
//	ralloc-apps -app vacation
//	ralloc-apps -app memcached -workload a
//	ralloc-apps -app memcached -workload b -threads 1,2,4
//	ralloc-apps -app memcached -workload c -valuesize 1024
//	ralloc-apps -app memcached -workload t -ttlms 500
//
// Workload t writes expiring records (TTL churn): updates attach short TTLs,
// reads miss on expired records (lazy expiry), and inline reclamation sweeps
// free them while traffic runs, exercising the allocate/expire/reclaim cache
// lifecycle.
//
// Both applications run as the paper ran them (§6.3): as a library, no
// socket. The network layer the paper removed is measured by benchmark/
// against the real ralloc-serve (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

func main() {
	var (
		app       = flag.String("app", "vacation", "vacation | memcached")
		workload  = flag.String("workload", "a", "YCSB workload: a (50/50), b (95/5), c (read-only), t (expiring records) or h (hash fields)")
		ttlFrac   = flag.Float64("ttlfrac", -1, "fraction of updates that attach a TTL (-1: workload default)")
		ttlMillis = flag.Int64("ttlms", 0, "TTL upper bound in ms for expiring updates (0: workload default)")
		fields    = flag.Int("fields", 0, "hash fields per record for workload h (0: workload default, 16)")
		threadStr = flag.String("threads", "", "comma-separated thread counts")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		records   = flag.Int("records", 100_000, "memcached record count (paper: 100K)")
		valueSize = flag.Int("valuesize", 0, "memcached value bytes per record (0: workload default, 100)")
		relations = flag.Int("relations", 16384, "vacation relations (paper: 16384)")
		flushNs   = flag.Int("flushns", int(bench.DefaultNVM.FlushLatency/time.Nanosecond), "simulated flush latency (ns)")
		heapMB    = flag.Uint64("heapmb", 1024, "heap size per allocator instance (MB)")
	)
	flag.Parse()

	threads := bench.DefaultThreads()
	if *threadStr != "" {
		threads = nil
		for _, p := range strings.Split(*threadStr, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			threads = append(threads, v)
		}
	}
	pcfg := pmem.Config{
		FlushLatency: time.Duration(*flushNs) * time.Nanosecond,
		FenceLatency: bench.DefaultNVM.FenceLatency,
	}
	factories := bench.Factories(pcfg)
	scaleN := func(n int) int {
		v := int(float64(n) * *scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	switch *app {
	case "vacation":
		// The paper tests only persistent allocators on Vacation
		// (§6.3): the code is explicitly persistence-instrumented.
		cfg := bench.DefaultVacation()
		cfg.Vac.Relations = *relations
		cfg.TxPerThread = scaleN(cfg.TxPerThread)
		fmt.Printf("# Figure 5e: Vacation — seconds (lower is better); relations=%d, 5 queries/txn, 90%% coverage\n", *relations)
		printSweep(factories, bench.PersistentAllocNames, threads, *heapMB<<20,
			func(a alloc.Allocator, t int) bench.Result { return bench.Vacation(a, t, cfg) },
			func(r bench.Result) float64 { return r.Seconds() })
	case "memcached":
		var w ycsb.Workload
		switch *workload {
		case "a":
			w = ycsb.WorkloadA(*records)
		case "b":
			w = ycsb.WorkloadB(*records)
		case "c":
			w = ycsb.WorkloadC(*records)
		case "t":
			w = ycsb.WorkloadT(*records)
		case "h":
			w = ycsb.WorkloadH(*records)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		if *valueSize > 0 {
			w.ValueSize = *valueSize
		}
		if *ttlFrac >= 0 {
			w.TTLFrac = *ttlFrac
		}
		if *ttlMillis > 0 {
			w.TTLMillis = *ttlMillis
		}
		if w.TTLFrac > 0 && w.TTLMillis <= 0 {
			w.TTLMillis = 250
		}
		if *fields > 0 {
			w.Fields = *fields
		}
		cfg := bench.MemcachedConfig{Workload: w, OpsPerTh: scaleN(20000)}
		fmt.Printf("# Figure 5f: Memcached YCSB-%s — K ops/sec (higher is better); %d records, %d B values, library mode\n",
			strings.ToUpper(*workload), *records, w.ValueSize)
		printSweep(factories, bench.AllocNames, threads, *heapMB<<20,
			func(a alloc.Allocator, t int) bench.Result { return bench.Memcached(a, t, cfg) },
			func(r bench.Result) float64 { return r.Kops() })
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}
}

func printSweep(factories map[string]bench.Factory, allocs []string, threads []int,
	heap uint64, fn func(alloc.Allocator, int) bench.Result, val func(bench.Result) float64) {

	fmt.Printf("%-8s", "threads")
	for _, a := range allocs {
		fmt.Printf(" %12s", a)
	}
	fmt.Println()
	for _, t := range threads {
		fmt.Printf("%-8d", t)
		for _, name := range allocs {
			series, err := bench.Sweep(factories[name], name, heap, []int{t}, fn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf(" %12.3f", val(series.Points[0].Result))
		}
		fmt.Println()
	}
}
