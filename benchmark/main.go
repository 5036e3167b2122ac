// Command benchmark is the repository's one benchmark: named workloads
// against the real stack, end to end (tracing off) or layer by layer
// (-trace 1). See README.md for the catalogue and BENCHMARK.json for the
// workloads the driver runs and the metric list this program emits — it reads
// its metric names and units from that file, so the two cannot drift apart.
//
//	bash benchmark/run.sh --workload kv_read --seed 1 --seconds 28 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --trace 1
//	bash benchmark/run.sh --selfcheck --seed 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hardTimeout bounds one workload's run; the watchdog reaps every child
// server and exits non-zero when it fires.
const hardTimeout = 170 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	out       string
	selfcheck bool
	root      string
}

// scale sizes a run. "full" is what BENCHMARK.json's numbers are measured at;
// "tiny" exists for the smoke test and keeps every code path.
type scale struct {
	name          string
	records       int
	heapMB        int
	buckets       int
	cacheBoundMB  int // kv_cache's -boundmb: about half the dataset's footprint
	conns         int // closed-loop connections; with the server they share one CPU (pin.go)
	churners      int // alloc_churn goroutines
	depth         int // pipeline depth: ops per batch
	ringOps       int // pre-generated ops per connection
	warmOps       int // per connection, part of set-up
	windows       int
	setups        int // set-ups per run; setup_s is their median
	cycles        int // crash cycles of crash_recover
	cycleRestarts int // restarts timed per cycle of crash_recover
	cycleSaved    int // keys SET before SAVE in a crash cycle
	cycleUnsaved  int // keys SET after SAVE (acked, not checkpointed)
	restarts      int // restarts timed in the one crash cycle of a kv_* workload
	churnSlots    int // live blocks per alloc_churn goroutine
	churnWarm     int // alloc_churn warm-up steps per goroutine
	traceOps      int // ops of the stream the traced replay uses
	smallHeapMB   int // capacity of the "64 MB" recovery rows and of every in-process serving row (the "256 MB" rows use heapMB)
}

func scaleOf(name string) (scale, error) {
	churners := min(runtime.NumCPU(), 2)
	switch name {
	case "full":
		return scale{name: name, records: 200000, heapMB: 256, buckets: 262144, cacheBoundMB: 16,
			conns: 1, churners: churners, depth: 16, ringOps: 1 << 20, warmOps: 100000, windows: 36, setups: 3,
			cycles: 3, cycleRestarts: 2, cycleSaved: 10000, cycleUnsaved: 2000, restarts: 6,
			churnSlots: 4096, churnWarm: 1 << 20, traceOps: 200000, smallHeapMB: 64}, nil
	case "tiny":
		return scale{name: name, records: 2000, heapMB: 16, buckets: 4096, cacheBoundMB: 1,
			conns: 1, churners: churners, depth: 16, ringOps: 1 << 14, warmOps: 500, windows: 4, setups: 2,
			cycles: 2, cycleRestarts: 1, cycleSaved: 200, cycleUnsaved: 40, restarts: 2,
			churnSlots: 256, churnWarm: 1 << 12, traceOps: 2000, smallHeapMB: 8}, nil
	}
	return scale{}, fmt.Errorf("unknown -scale %q (full, tiny)", name)
}

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDoc is the JSON document a run writes beside its printed rows: the
// result plus everything needed to judge it (environment, seed, the windows a
// median came from, sample counts, harness-honesty numbers).
type runDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Scale    string             `json:"scale"`
	Trace    bool               `json:"trace"`
	Env      map[string]string  `json:"env"`
	Result   result             `json:"result"`
	Windows  map[string]windows `json:"windows,omitempty"`
	Samples  map[string]int     `json:"samples,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

type windows struct {
	Values  []float64 `json:"values"`
	Summary fiveNum   `json:"summary"`
}

// run carries what every workload needs and collects what it measures.
type run struct {
	opt   options
	sc    scale
	spec  *benchSpec
	bin   string // ralloc-serve binary
	tmp   string // this run's temp dir, relative to the working directory
	vals  map[string]float64
	tally tally
	doc   *runDoc
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) recordWindows(name string, vs []float64) {
	r.doc.Windows[name] = windows{Values: vs, Summary: summarize(vs)}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all (those of BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run, tracing off; 1: traced run emitting the per-layer rows")
	flag.StringVar(&o.scale, "scale", "full", "full or tiny (smoke test)")
	flag.StringVar(&o.out, "out", "", "directory for the JSON document and spans.jsonl (default <root>/.bench_build/out)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice with -seed and once with seed+1, compare against the bounds")
	flag.StringVar(&o.root, "root", "", "repository root (default: found from the working directory)")
	flag.Parse()

	defer reapAll()
	if err := runMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		reapAll()
		return 1
	}
	return 0
}

func findRoot() (string, error) {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "ralloc-serve", "main.go")); err == nil {
			return d, nil
		}
	}
	return "", errors.New("cannot find the repository root (cmd/ralloc-serve) from the working directory; pass -root")
}

func runMain(o options) error {
	if o.root == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		o.root = root
	}
	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	sc, err := scaleOf(o.scale)
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build", "bin"), 0o755); err != nil {
		return err
	}
	bin, buildDur, err := buildServer(o.root)
	if err != nil {
		return err
	}
	if buildDur > 5*time.Second {
		// A cold build leaves hundreds of megabytes of dirty page cache whose
		// write-back would otherwise run under the first measurement.
		syscall.Sync()
	}

	if o.selfcheck {
		return selfcheck(o, sc, spec, bin)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		doc, err := runWorkload(o, sc, spec, bin, buildDur, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := emit(o, doc); err != nil {
			return err
		}
	}
	return nil
}

// workloadFuncs has the workloads BENCHMARK.json lists and two more,
// kv_cache and crash_recover, that are run by name only: the driver's time
// limit is for all its runs together, and every workload it lists shortens
// the others' runs.
var workloadFuncs = map[string]func(*run) error{
	"kv_read":       runKV,
	"kv_write":      runKV,
	"kv_cache":      runKV,
	"alloc_churn":   runChurn,
	"crash_recover": runKV,
}

// runWorkload runs one workload once (end to end, or traced) under the hard
// timeout and returns its document with every metric BENCHMARK.json lists.
func runWorkload(o options, sc scale, spec *benchSpec, bin string, buildDur time.Duration, name string) (*runDoc, error) {
	fn, ok := workloadFuncs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(sortedKeys(workloadFuncs), ", "))
	}
	tmpRoot := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	watchdog := time.AfterFunc(hardTimeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its hard timeout of %v\n", name, hardTimeout)
		reapAll()
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := &run{opt: o, sc: sc, spec: spec, bin: bin, tmp: tmp, vals: map[string]float64{}}
	r.doc = &runDoc{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Scale: sc.name, Trace: o.trace != 0,
		Env:     envInfo(o.root),
		Windows: map[string]windows{}, Samples: map[string]int{}, Extra: map[string]float64{},
	}
	r.opt.workload = name
	specs := spec.EndToEnd
	if o.trace != 0 {
		fn, specs = runTraced, spec.PerLayer
		r.set("harness.build_s", buildDur.Seconds())
	}
	if err := fn(r); err != nil {
		return nil, err
	}

	res := result{Attempted: r.tally.ops, Failed: r.tally.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, m := range specs {
		v, ok := r.vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured (value %v)", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(r.vals, m.Name)
	}
	if len(r.vals) > 0 {
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %s", strings.Join(sortedKeys(r.vals), ", "))
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	r.doc.Result = res
	return r.doc, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func envInfo(root string) map[string]string {
	env := map[string]string{
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	// The driver's checkout is not a git repository; a developer's is.
	if b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		env["commit"] = head
	}
	return env
}

// emit prints every metric as "workload metric value unit", writes the JSON
// document, and ends with the one-line result object the driver parses.
func emit(o options, doc *runDoc) error {
	for _, name := range sortedKeys(doc.Result.Metrics) {
		m := doc.Result.Metrics[name]
		fmt.Printf("%s %s %v %s\n", doc.Workload, name, m.Value, m.Unit)
	}
	fmt.Printf("%s failed %d of %d\n", doc.Workload, doc.Result.Failed, doc.Result.Attempted)
	mode := "e2e"
	if doc.Trace {
		mode = "trace"
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-%s.json", doc.Workload, mode)), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(doc.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
