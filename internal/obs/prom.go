package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Collector contributes samples to one /metrics render. Implementations
// must be safe for concurrent scrapes and should read their sources with
// the same relaxed-snapshot semantics the rest of obs uses.
type Collector interface {
	Collect(e *Emitter)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Emitter)

// Collect implements Collector.
func (f CollectorFunc) Collect(e *Emitter) { f(e) }

// Registry is a set of Collectors rendered together as Prometheus text
// exposition format (version 0.0.4) — hand-rolled, no dependencies.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector to every future render.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// snapshot copies the collector list out from under the mutex, so a slow
// Collect never renders while holding the registry lock.
func (r *Registry) snapshot() []Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Collector(nil), r.collectors...)
}

// WriteText renders every collector's samples as Prometheus text.
func (r *Registry) WriteText(w io.Writer) error {
	collectors := r.snapshot()
	bw := bufio.NewWriter(w)
	e := &Emitter{w: bw}
	for _, c := range collectors {
		c.Collect(e)
	}
	return bw.Flush()
}

// Emitter renders one collector pass. Families are announced once with
// Family (HELP/TYPE headers); samples follow with Value/Histogram.
type Emitter struct {
	w        *bufio.Writer
	families map[string]bool
}

// Family writes the # HELP / # TYPE header for a metric family, once per
// render. typ is "counter", "gauge", or "histogram".
func (e *Emitter) Family(name, typ, help string) {
	if e.families == nil {
		e.families = map[string]bool{}
	}
	if e.families[name] {
		return
	}
	e.families[name] = true
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Single announces a single-sample family and writes its one value — the
// common shape for server-wide gauges and counters, collapsing the
// Family+Value pair call sites would otherwise repeat.
func (e *Emitter) Single(name, typ, help string, v float64) {
	e.Family(name, typ, help)
	e.Value(name, v)
}

// Value writes one sample. labels are alternating key, value pairs.
func (e *Emitter) Value(name string, v float64, labels ...string) {
	e.w.WriteString(name)
	writeLabels(e.w, labels, "", false)
	e.w.WriteByte(' ')
	e.w.WriteString(formatValue(v))
	e.w.WriteByte('\n')
}

// Histogram writes a full Prometheus histogram — cumulative _bucket series
// with le edges in seconds, plus _sum (seconds) and _count — from a
// snapshot. Empty buckets between populated ones are skipped (the series
// stays cumulative and therefore still valid for histogram_quantile).
func (e *Emitter) Histogram(name string, s *HistSnapshot, labels ...string) {
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if n == 0 && i != HistBuckets-1 {
			continue
		}
		le := "+Inf"
		if i != HistBuckets-1 {
			le = formatValue(float64(HistBucketUpper(i)) / 1e9)
		}
		e.w.WriteString(name + "_bucket")
		writeLabels(e.w, labels, "le", true)
		e.w.WriteString(le)
		e.w.WriteString("\"} ")
		e.w.WriteString(strconv.FormatUint(cum, 10))
		e.w.WriteByte('\n')
	}
	e.Value(name+"_sum", float64(s.Sum)/1e9, labels...)
	e.Value(name+"_count", float64(s.Count), labels...)
}

// writeLabels renders {k="v",...}. When leKey is non-empty the brace is
// left open after writing `leKey="` so the caller appends the le value and
// closes it (avoids allocating per-bucket label slices).
func writeLabels(w *bufio.Writer, labels []string, leKey string, open bool) {
	if len(labels) == 0 && !open {
		return
	}
	w.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(labels[i])
		w.WriteString("=\"")
		w.WriteString(escapeLabel(labels[i+1]))
		w.WriteByte('"')
	}
	if open {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(leKey)
		w.WriteString("=\"")
		return
	}
	w.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a float the way Prometheus clients do: integers
// without an exponent, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
