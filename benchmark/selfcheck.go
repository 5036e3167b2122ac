package main

import (
	"fmt"
	"math"
	"strings"
)

// selfcheck shows that two sets of runs of the same code agree within the
// benchmark's own bounds: the end-to-end set twice with -seed and once with
// seed+1, and the traced run twice with -seed for the count rows, which are
// measured on one thread and must repeat exactly.
func selfcheck(o options, sc scale, spec *benchSpec, bin string) error {
	set := func(seed int64, trace int, workloads []string) (map[string]map[string]metric, error) {
		oo := o
		oo.seed, oo.trace = seed, trace
		out := map[string]map[string]metric{}
		for _, w := range workloads {
			doc, err := runWorkload(oo, sc, spec, bin, 0, w)
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d, trace %d): %w", w, seed, trace, err)
			}
			if doc.Result.Failed != 0 {
				return nil, fmt.Errorf("%s (seed %d, trace %d): %d of %d operations failed", w, seed, trace, doc.Result.Failed, doc.Result.Attempted)
			}
			out[w] = doc.Result.Metrics
		}
		return out, nil
	}
	var all []string
	for _, w := range spec.Workloads {
		all = append(all, w.Name)
	}
	var sets [3]map[string]map[string]metric
	for i, seed := range []int64{o.seed, o.seed, o.seed + 1} {
		var err error
		if sets[i], err = set(seed, 0, all); err != nil {
			return err
		}
	}
	gap := func(a, b float64) float64 { return math.Abs(b-a) / math.Abs(a) }
	bad := 0
	fmt.Printf("%-14s %-24s %14s %14s %7s %6s | %14s %7s\n", "workload", "metric", "seed "+fmt.Sprint(o.seed), "same seed", "gap", "bound", "seed "+fmt.Sprint(o.seed+1), "gap")
	for _, w := range all {
		for _, m := range spec.EndToEnd {
			a, b, c := sets[0][w][m.Name].Value, sets[1][w][m.Name].Value, sets[2][w][m.Name].Value
			flag := ""
			if gap(a, b) > m.Bound || (m.Name == "durable_frac" && a != b) {
				flag, bad = "  EXCEEDS", bad+1
			}
			other := ""
			if gap(a, c) > m.Bound {
				other = "  (second seed exceeds)"
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %6.1f%% %5.1f%% | %14.6g %6.1f%%%s%s\n",
				w, m.Name, a, b, gap(a, b)*100, m.Bound*100, c, gap(a, c)*100, flag, other)
		}
	}

	const traced = "kv_write"
	var counts [2]map[string]map[string]metric
	for i := range counts {
		var err error
		if counts[i], err = set(o.seed, 1, []string{traced}); err != nil {
			return err
		}
	}
	for _, m := range spec.PerLayer {
		if !strings.HasSuffix(m.Name, ".flushes") && !strings.HasSuffix(m.Name, ".fences") && !strings.HasSuffix(m.Name, ".loads") {
			continue
		}
		a, b := counts[0][traced][m.Name].Value, counts[1][traced][m.Name].Value
		flag := ""
		if a != b {
			flag, bad = "  DIFFERS", bad+1
		}
		fmt.Printf("%-14s %-24s %14.6g %14.6g%s\n", "traced", m.Name, a, b, flag)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d same-seed comparisons outside their bound", bad)
	}
	fmt.Println("selfcheck: every same-seed pair within its bound; count rows repeat exactly")
	return nil
}
