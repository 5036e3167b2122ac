package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/pmem"
)

// The traced run measures every layer from outside, at its public functions.
// It keeps spans in memory and writes spans.jsonl when the run ends; at the
// same boundaries it takes deltas of the region's event counters, so
// flushes/op and fences/op are counted where the work happens.

// chunkOps is the span granularity inside a measurement.
const chunkOps = 1024

// span is one line of spans.jsonl. Parent is the id of the enclosing span
// (-1 at the top). The counter fields are deltas of pmem.Region.Stats over
// the span and are omitted where no region was observed.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"` // ns since the trace began
	End      int64  `json:"end"`
	Ops      int    `json:"ops,omitempty"`
	Flushes  uint64 `json:"flushes,omitempty"`
	Fences   uint64 `json:"fences,omitempty"`
	Loads    uint64 `json:"loads,omitempty"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int // open group spans
	off      bool  // the untraced pass of the overhead measurement
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// add opens a span under parent and returns its id; close ends it.
func (t *tracer) add(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id int) *span {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return s
}

// top is the innermost open group span, -1 outside any.
func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// group runs fn under a span (a layer, or one phase inside it).
func (t *tracer) group(name string, fn func() error) error {
	id := t.add(name, t.top())
	t.stack = append(t.stack, id)
	defer func() {
		t.stack = t.stack[:len(t.stack)-1]
		t.close(id)
	}()
	return fn()
}

// timed runs fn under a leaf span and returns how long it took.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id := t.add(name, t.top())
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.close(id)
	return d, err
}

// sample is one measurement: time and counted events per op.
type sample struct {
	ns      float64 // wall nanoseconds per op
	flushes float64 // pmem line flushes per op
	fences  float64
	loads   float64 // pmem word loads per op
	allocs  float64 // Go heap allocations per op (whole process)
}

// entry is one entry point to measure: fn runs ops [lo,hi) of the stream.
// region may be nil when the code touches no region (or several).
type entry struct {
	name   string
	region *pmem.Region
	fn     func(lo, hi int)
}

// goAllocs reads the process's cumulative heap allocation count; unlike
// runtime.ReadMemStats it does not stop the world, so it can be read at every
// chunk boundary.
func goAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measureChain runs n ops through every entry point, chunkOps at a time and
// interleaved — entry 0's chunk, entry 1's chunk, ..., then the next chunk —
// so that all of them see the same machine conditions and their differences
// (a layer's self time) do not carry the machine's drift. Each entry gets a
// span with one child span per chunk. It returns per-op time and counts per
// entry.
func (t *tracer) measureChain(n int, entries ...entry) []sample {
	type acc struct {
		ns                     int64
		flushes, fences, loads uint64
		allocs                 uint64
	}
	accs, ids := make([]acc, len(entries)), make([]int, len(entries))
	if !t.off {
		for j, e := range entries {
			ids[j] = t.add(e.name, t.top())
		}
	}
	for lo := 0; lo < n; lo += chunkOps {
		hi := min(lo+chunkOps, n)
		for j, e := range entries {
			var cid int
			if !t.off {
				cid = t.add("chunk", ids[j])
			}
			var c0 pmem.Stats
			if e.region != nil {
				c0 = e.region.Stats()
			}
			a0, t0 := goAllocs(), time.Now()
			e.fn(lo, hi)
			accs[j].ns += int64(time.Since(t0))
			accs[j].allocs += goAllocs() - a0
			var d pmem.Stats
			if e.region != nil {
				c1 := e.region.Stats()
				d = pmem.Stats{Flushes: c1.Flushes - c0.Flushes, Fences: c1.Fences - c0.Fences, Loads: c1.Loads - c0.Loads}
				accs[j].flushes, accs[j].fences, accs[j].loads = accs[j].flushes+d.Flushes, accs[j].fences+d.Fences, accs[j].loads+d.Loads
			}
			if !t.off {
				s := t.close(cid)
				s.Ops, s.Flushes, s.Fences, s.Loads = hi-lo, d.Flushes, d.Fences, d.Loads
			}
		}
	}
	out := make([]sample, len(entries))
	for j, a := range accs {
		if !t.off {
			s := t.close(ids[j])
			s.Ops, s.Flushes, s.Fences, s.Loads = n, a.flushes, a.fences, a.loads
		}
		f := float64(n)
		out[j] = sample{ns: float64(a.ns) / f, flushes: float64(a.flushes) / f, fences: float64(a.fences) / f,
			loads: float64(a.loads) / f, allocs: float64(a.allocs) / f}
	}
	return out
}

// measure is measureChain for a single entry point.
func (t *tracer) measure(name string, n int, region *pmem.Region, fn func(lo, hi int)) sample {
	return t.measureChain(n, entry{name, region, fn})[0]
}

func (t *tracer) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is -trace 1: every per-layer row of BENCHMARK.json, measured
// layer by layer from the streams the selected workload's seed generates.
func runTraced(r *run) error {
	t := newTracer(r.opt.workload)
	groups := []struct {
		name string
		fn   func(*run, *tracer) error
	}{
		{"pmem", layerPmem},
		{"ralloc", layerRalloc},
		{"kv", layerKV},
		{"server", layerServer},
		{"recovery", layerRecovery},
		{"repl", layerRepl},
		{"obs", layerObs},
		{"binary", layerBinary},
	}
	for _, g := range groups {
		if err := t.group(g.name, func() error { return g.fn(r, t) }); err != nil {
			return err
		}
	}
	return t.write(r.opt.out)
}
