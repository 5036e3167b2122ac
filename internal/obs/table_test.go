package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestTableTwoWalks: one declaration per value, two texts. The INFO walk and
// the /metrics walk read the same rows; a Duration is microseconds in one and
// seconds in the other; a Lazy value is never read by a scrape; First moves a
// family ahead of its section's others; consecutive same-named sections share
// a header; OnDemand sections render by name only.
func TestTableTwoWalks(t *testing.T) {
	lazyReads := 0
	snap := HistSnapshot{Count: 2, Sum: 3000}
	snap.Buckets[HistBuckets-1] = 2
	table := Table{
		{Name: "server", Rows: func() []Row {
			return []Row{
				{Key: "role", Val: "primary"},
				{Key: "clients", Val: 3, Metric: "t_clients", Type: "gauge", Help: "Clients."},
				{Key: "accepted", Val: uint64(7), Metric: "t_accepted_total", Type: "counter", Help: "Accepted.", First: true},
				{Key: "last_save_us", Val: 1500 * time.Microsecond, Metric: "t_last_save_seconds", Type: "gauge", Help: "Last save."},
				{Key: "census", Lazy: func() any { lazyReads++; return 9 }},
				{Key: "bounded", Val: false},
				{Val: int64(4), Metric: "t_hidden", Type: "gauge", Help: "Scrape only."},
			}
		}},
		{Name: "Server", Render: func() string { return "extra:1\r\n" }},
		{Name: "stats", OnDemand: true, Rows: func() []Row {
			return []Row{{Key: "cmd_", Member: "get", Label: "cmd", Sub: []Row{
				{Key: "calls", Val: uint64(2), Metric: "t_calls_total", Type: "counter", Help: "Calls."},
				{Key: "usec", Val: 3.0, Format: "%.1f"},
				{Val: &snap, Metric: "t_latency_seconds", Type: "histogram", Help: "Latency."},
			}}}
		}},
		{Rows: func() []Row { return []Row{{Val: 1, Metric: "t_unnamed", Type: "gauge", Help: "No INFO."}} }},
	}

	wantInfo := "# Server\r\nrole:primary\r\nclients:3\r\naccepted:7\r\nlast_save_us:1500\r\ncensus:9\r\nbounded:false\r\nextra:1\r\n"
	if got := table.Info(false); got != wantInfo {
		t.Errorf("default INFO:\n%q\nwant\n%q", got, wantInfo)
	}
	if got, want := table.Named("STATS").Info(true), "# Stats\r\ncmd_get:calls=2,usec=3.0\r\n"; got != want {
		t.Errorf("INFO stats:\n%q\nwant\n%q", got, want)
	}
	if got := table.Names(); len(got) != 2 || got[0] != "server" || got[1] != "stats" {
		t.Errorf("Names() = %v", got)
	}
	if len(table.Named("nosuch")) != 0 {
		t.Error("Named matched an unknown section")
	}

	lazyReads = 0
	reg := NewRegistry()
	reg.Register(CollectorFunc(table.Collect))
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	wantMetrics := `# HELP t_accepted_total Accepted.
# TYPE t_accepted_total counter
t_accepted_total 7
# HELP t_clients Clients.
# TYPE t_clients gauge
t_clients 3
# HELP t_last_save_seconds Last save.
# TYPE t_last_save_seconds gauge
t_last_save_seconds 0.0015
# HELP t_hidden Scrape only.
# TYPE t_hidden gauge
t_hidden 4
# HELP t_calls_total Calls.
# TYPE t_calls_total counter
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_calls_total{cmd="get"} 2
t_latency_seconds_bucket{cmd="get",le="+Inf"} 2
t_latency_seconds_sum{cmd="get"} 3e-06
t_latency_seconds_count{cmd="get"} 2
# HELP t_unnamed No INFO.
# TYPE t_unnamed gauge
t_unnamed 1
`
	if got := buf.String(); got != wantMetrics {
		t.Errorf("/metrics:\n%s\nwant\n%s", got, wantMetrics)
	}
	if lazyReads != 0 {
		t.Errorf("a scrape read the Lazy value %d times", lazyReads)
	}
}
