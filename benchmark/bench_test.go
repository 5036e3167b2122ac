package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload (the driver's and the two that are run by
// hand, see README.md) end to end and one traced run at -scale tiny
// and checks the output contract: exactly the metrics BENCHMARK.json lists,
// finite, with their units; well-formed names; no failed operation; and a
// spans.jsonl whose spans nest and do not end before they start.
func TestSmoke(t *testing.T) {
	const root = ".."
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scaleOf("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reapAll)
	out := filepath.Join(root, ".bench_build", "out", "smoke")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 0.4, scale: "tiny", out: out, root: root}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, doc *runDoc, want []metricSpec) {
		t.Helper()
		if doc.Result.Failed != 0 || !doc.Result.Correct || doc.Result.Attempted == 0 {
			t.Errorf("failed %d of %d attempted, correct=%v", doc.Result.Failed, doc.Result.Attempted, doc.Result.Correct)
		}
		if len(doc.Result.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(doc.Result.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := doc.Result.Metrics[m.Name]
			switch {
			case !name.MatchString(m.Name):
				t.Errorf("metric name %q is malformed", m.Name)
			case !ok:
				t.Errorf("metric %s not emitted", m.Name)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
			}
		}
	}

	for _, w := range spec.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not have", w.Name)
		}
	}
	for _, w := range sortedKeys(workloadFuncs) {
		t.Run(w, func(t *testing.T) {
			doc, err := runWorkload(o, sc, spec, bin, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, doc, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if doc.Result.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		ot := o
		ot.trace = 1
		doc, err := runWorkload(ot, sc, spec, bin, 0, "kv_write")
		if err != nil {
			t.Fatal(err)
		}
		check(t, doc, spec.PerLayer)
		if lost := doc.Result.Metrics["crash.strict_acked_lost"].Value; lost != 0 {
			t.Errorf("crash.strict_acked_lost = %v", lost)
		}

		f, err := os.Open(filepath.Join(out, "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n := 0
		for sc := bufio.NewScanner(f); sc.Scan(); n++ {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("span %d: %v", n, err)
			}
			if s.ID != n || s.Parent < -1 || s.Parent >= s.ID {
				t.Fatalf("span %d (%s): id %d, parent %d: parent must be an earlier span", n, s.Name, s.ID, s.Parent)
			}
			if s.End < s.Start || s.Name == "" || s.Workload != "kv_write" {
				t.Fatalf("span %d malformed: %+v", n, s)
			}
		}
		if n == 0 {
			t.Error("spans.jsonl is empty")
		}
	})
}
