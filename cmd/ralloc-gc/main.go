// Command ralloc-gc regenerates the recovery-time figures (Fig. 6): GC +
// metadata-reconstruction time as a function of the number of reachable
// blocks, for a Treiber stack (6a) and the Natarajan–Mittal BST (6b). The
// -filter=false flag runs the conservative-tracing ablation (A1 in
// DESIGN.md) on the stack.
//
// Examples:
//
//	ralloc-gc -struct stack -sizes 100000,200000,400000
//	ralloc-gc -struct nmbst
//	ralloc-gc -struct stack -filter=false
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		structName = flag.String("struct", "stack", "stack | nmbst")
		sizesStr   = flag.String("sizes", "50000,100000,200000,400000,800000", "reachable-node counts to sample")
		useFilter  = flag.Bool("filter", true, "use the structure's filter function (false = conservative ablation)")
	)
	flag.Parse()

	var sizes []int
	for _, p := range strings.Split(*sizesStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", p)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}

	fig := "Figure 6a (Treiber stack)"
	if *structName == "nmbst" {
		fig = "Figure 6b (Natarajan & Mittal tree)"
	}
	mode := "filter functions"
	if !*useFilter {
		mode = "conservative tracing (ablation A1)"
	}
	fmt.Printf("# %s: GC time vs reachable blocks — %s\n", fig, mode)
	fmt.Printf("%-12s %-16s %-14s %s\n", "nodes", "reachable", "gc_time_ms", "ns_per_block")

	for _, n := range sizes {
		var res bench.GCResult
		var err error
		switch *structName {
		case "stack":
			res, err = bench.GCStack(n, *useFilter, 1)
		case "nmbst":
			res, err = bench.GCTree(n)
		default:
			fmt.Fprintf(os.Stderr, "unknown structure %q\n", *structName)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		perBlock := float64(res.GCTime.Nanoseconds()) / float64(res.ReachableBlocks)
		fmt.Printf("%-12d %-16d %-14.2f %.1f\n",
			n, res.ReachableBlocks, float64(res.GCTime.Microseconds())/1000, perBlock)
	}
}
