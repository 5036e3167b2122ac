package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The stat table: every number the process reports is one Row, declared once
// — where the value is read, its INFO key, its /metrics family — and the INFO
// text and the /metrics text are two walks over the same rows. A value's Go
// type is its unit: a time.Duration shows as microseconds in INFO and as
// seconds in /metrics, everything else as itself. To add a stat, add a row.

// Section is a named block of rows: "# Name" and its lines in INFO, its
// families in /metrics.
type Section struct {
	// Name is the lowercase section name ("server", "heap"); INFO titles it.
	// Consecutive sections of one name render under a single header, which
	// is how an embedder extends a builtin section. A section with no name
	// never appears in INFO.
	Name string
	// OnDemand keeps the section out of the default INFO reply; INFO <name>
	// still serves it.
	OnDemand bool
	// Rows reads the section's values. It runs once per render, and only
	// when this section is rendered.
	Rows func() []Row
	// Render returns further preformatted "key:value\r\n" INFO lines, for an
	// embedder that formats its own.
	Render func() string
}

// Row is one reported value, or — with Sub — one member of a repeated block.
type Row struct {
	// Key is the INFO key; "" keeps the row out of INFO.
	Key string
	// Val is a string, bool, int, int64, uint64, float64 or time.Duration
	// (a *HistSnapshot for a "histogram" family).
	Val any
	// Lazy stands in for Val when reading the value costs more than a
	// scrape may pay (a keyspace walk): only INFO calls it.
	Lazy func() any
	// Format is the INFO verb for a float64 ("%.2f").
	Format string
	// Metric, Type and Help are the /metrics family ("counter", "gauge",
	// "histogram"); Metric "" keeps the row out of /metrics.
	Metric, Type, Help string
	// First emits the family ahead of the section's unmarked ones. The
	// /metrics text is older than the table and lists a few families in a
	// different order from their INFO keys; scrapes stay byte-identical.
	First bool
	// Sub makes the row one member — one command, one shard, one connected
	// replica — of a block repeated per member: INFO renders the line
	// "<Key><Member>:k=v,k=v" from the sub-rows, /metrics announces their
	// families and samples each with the label Label="<Member>".
	Sub           []Row
	Member, Label string
}

// value formats the row for INFO the way INFO always has: durations in whole
// microseconds, booleans as true/false, integers in decimal.
func (r *Row) value() string {
	v := r.Val
	if r.Lazy != nil {
		v = r.Lazy()
	}
	switch v := v.(type) {
	case string:
		return v
	case time.Duration:
		return strconv.FormatInt(v.Microseconds(), 10)
	case float64:
		return fmt.Sprintf(r.Format, v)
	}
	return fmt.Sprint(v)
}

// sample converts v to a /metrics sample: durations in seconds.
func sample(v any) float64 {
	switch v := v.(type) {
	case time.Duration:
		return float64(v) / 1e9
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	panic(fmt.Sprintf("obs: %T is not a metric value", v))
}

// Table is an ordered list of sections.
type Table []Section

// Named returns the sections called name, case-insensitively.
func (t Table) Named(name string) Table {
	var out Table
	for _, sec := range t {
		if strings.EqualFold(sec.Name, name) {
			out = append(out, sec)
		}
	}
	return out
}

// Names lists the sections INFO <name> serves, lowercased, in table order.
func (t Table) Names() []string {
	var names []string
	for i, sec := range t {
		if sec.Name != "" && (i == 0 || !strings.EqualFold(t[i-1].Name, sec.Name)) {
			names = append(names, strings.ToLower(sec.Name))
		}
	}
	return names
}

// Info renders the table as INFO text. all includes the OnDemand sections
// (the caller asked for them by name).
func (t Table) Info(all bool) string {
	var b strings.Builder
	for i, sec := range t {
		if sec.Name == "" || (sec.OnDemand && !all) {
			continue
		}
		if i == 0 || !strings.EqualFold(t[i-1].Name, sec.Name) {
			fmt.Fprintf(&b, "# %s%s\r\n", strings.ToUpper(sec.Name[:1]), sec.Name[1:])
		}
		b.WriteString(sec.Lines())
	}
	return b.String()
}

// Lines renders the section's INFO lines, without the header.
func (sec Section) Lines() string {
	var b strings.Builder
	if sec.Rows != nil {
		for _, r := range sec.Rows() {
			r.info(&b)
		}
	}
	if sec.Render != nil {
		b.WriteString(sec.Render())
	}
	return b.String()
}

func (r *Row) info(b *strings.Builder) {
	switch {
	case r.Sub != nil:
		b.WriteString(r.Key + r.Member)
		sep := ":"
		for _, c := range r.Sub {
			if c.Key != "" {
				b.WriteString(sep + c.Key + "=" + c.value())
				sep = ","
			}
		}
		b.WriteString("\r\n")
	case r.Key != "":
		b.WriteString(r.Key + ":" + r.value() + "\r\n")
	}
}

// Collect emits the table's /metrics families, section by section: within a
// section the First rows, then the rest, in row order. Each member of a
// repeated block announces its families (once per render) and then samples
// them.
func (t Table) Collect(e *Emitter) {
	for _, sec := range t {
		if sec.Rows == nil {
			continue
		}
		rows := sec.Rows()
		for _, first := range [2]bool{true, false} {
			for _, r := range rows {
				if r.First == first {
					r.collect(e)
				}
			}
		}
	}
}

func (r *Row) collect(e *Emitter, labels ...string) {
	for _, c := range r.Sub {
		if c.Metric != "" {
			e.Family(c.Metric, c.Type, c.Help)
		}
	}
	for _, c := range r.Sub {
		c.collect(e, r.Label, r.Member)
	}
	switch {
	case r.Metric == "":
	case r.Type == "histogram":
		e.Histogram(r.Metric, r.Val.(*HistSnapshot), labels...)
	default:
		e.Family(r.Metric, r.Type, r.Help)
		e.Value(r.Metric, sample(r.Val), labels...)
	}
}
