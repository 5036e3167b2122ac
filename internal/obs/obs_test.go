package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterStriped(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Load(); got != 32*1000+5 {
		t.Fatalf("Load = %d, want %d", got, 32*1000+5)
	}
}

// TestStripeIndexSeparatesGoroutines: the marker StripeIndex takes the
// address of must live on the calling goroutine's stack. Were it ever placed
// at a shared address, every goroutine would report the same stripe.
func TestStripeIndexSeparatesGoroutines(t *testing.T) {
	const goroutines = 32
	var ready, wg sync.WaitGroup
	stripes := make([]uint, goroutines)
	hold := make(chan struct{})
	for g := range stripes {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripes[g] = StripeIndex()
			ready.Done()
			<-hold // every stack stays alive until all have reported
		}()
	}
	ready.Wait()
	close(hold)
	wg.Wait()
	seen := map[uint]bool{}
	for _, s := range stripes {
		seen[s] = true
	}
	if len(seen) < goroutines/4 {
		t.Fatalf("%d concurrent goroutines landed on %d stripes: %v", goroutines, len(seen), stripes)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("Load = %d, want 4", got)
	}
}

func TestSlowLogRingAndTruncation(t *testing.T) {
	l := NewSlowLog(3)
	args := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	for i := 0; i < 5; i++ {
		id := l.Add(int64(1000+i), time.Duration(i+1)*time.Millisecond, args("GET", fmt.Sprintf("k%d", i)))
		if id != int64(i) {
			t.Fatalf("entry %d: id %d", i, id)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	got := l.Get(-1)
	if len(got) != 3 || got[0].ID != 4 || got[1].ID != 3 || got[2].ID != 2 {
		t.Fatalf("Get(-1) order wrong: %+v", got)
	}
	if got[0].Args[1] != "k4" || got[0].Unix != 1004 {
		t.Fatalf("newest entry wrong: %+v", got[0])
	}
	if one := l.Get(1); len(one) != 1 || one[0].ID != 4 {
		t.Fatalf("Get(1): %+v", one)
	}

	// Truncation: >32 args collapse, long args clip.
	many := make([][]byte, 40)
	for i := range many {
		many[i] = []byte(fmt.Sprintf("a%d", i))
	}
	many[0] = []byte(strings.Repeat("x", 200))
	l.Add(2000, time.Second, many)
	e := l.Get(1)[0]
	if len(e.Args) != slowMaxArgs {
		t.Fatalf("truncated args len = %d, want %d", len(e.Args), slowMaxArgs)
	}
	if want := strings.Repeat("x", slowMaxArgLen) + "..."; e.Args[0] != want {
		t.Fatalf("long arg not clipped: %q", e.Args[0][:20])
	}
	if e.Args[slowMaxArgs-1] != "... (9 more arguments)" {
		t.Fatalf("marker arg = %q", e.Args[slowMaxArgs-1])
	}

	// Reset clears entries but IDs keep increasing.
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	if id := l.Add(3000, time.Second, args("PING")); id != 6 {
		t.Fatalf("id after Reset = %d, want 6", id)
	}
}

func TestEvents(t *testing.T) {
	e := NewEvents()
	base := time.Unix(5000, 0)
	e.Record("checkpoint", base, 10*time.Millisecond)
	e.Record("checkpoint", base.Add(time.Second), 30*time.Millisecond)
	e.Record("expiry-cycle", base, 2*time.Millisecond)

	latest := e.Latest()
	if len(latest) != 2 || latest[0].Name != "checkpoint" || latest[1].Name != "expiry-cycle" {
		t.Fatalf("Latest: %+v", latest)
	}
	if latest[0].Latest != 30*time.Millisecond || latest[0].Max != 30*time.Millisecond || latest[0].Unix != 5001 {
		t.Fatalf("checkpoint row: %+v", latest[0])
	}

	hist := e.History("checkpoint")
	if len(hist) != 2 || hist[0].Dur != 10*time.Millisecond || hist[1].Dur != 30*time.Millisecond {
		t.Fatalf("History: %+v", hist)
	}
	if e.History("nope") != nil {
		t.Fatalf("History of unknown event not nil")
	}

	// Ring wraps at EventHistory samples.
	for i := 0; i < EventHistory+10; i++ {
		e.Record("busy", base, time.Duration(i))
	}
	if got := len(e.History("busy")); got != EventHistory {
		t.Fatalf("wrapped history len = %d", got)
	}

	if n := e.Reset("checkpoint", "nope"); n != 1 {
		t.Fatalf("Reset named = %d, want 1", n)
	}
	if n := e.Reset(); n != 2 {
		t.Fatalf("Reset all = %d, want 2", n)
	}
	if len(e.Latest()) != 0 {
		t.Fatalf("Latest after reset: %+v", e.Latest())
	}
}

func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	h.Record(3 * time.Microsecond)
	h.Record(100 * time.Millisecond)
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Family("test_ops_total", "counter", "Ops processed.")
		e.Value("test_ops_total", 42, "cmd", "get")
		e.Value("test_ops_total", 7, "cmd", `we"ird\na`)
		e.Family("test_latency_seconds", "histogram", "Latency.")
		s := h.Snapshot()
		e.Histogram("test_latency_seconds", &s, "cmd", "get")
		e.Family("test_temp", "gauge", "A gauge.")
		e.Value("test_temp", 1.5)
	}))
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# HELP test_ops_total Ops processed.\n# TYPE test_ops_total counter\n",
		`test_ops_total{cmd="get"} 42`,
		`test_ops_total{cmd="we\"ird\\na"} 7`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{cmd="get",le="+Inf"} 2`,
		`test_latency_seconds_count{cmd="get"} 2`,
		`test_latency_seconds_sum{cmd="get"} 0.100003`,
		"test_temp 1.5\n",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at +Inf with the total count.
	if !strings.HasSuffix(strings.TrimSpace(lastBucketLine(out)), " 2") {
		t.Errorf("last bucket not cumulative total:\n%s", out)
	}
}

func lastBucketLine(s string) string {
	last := ""
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "_bucket{") {
			last = line
		}
	}
	return last
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Family("up", "gauge", "Always one.")
		e.Value("up", 1)
	}))
	h := NewHTTPHandler(reg)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "up 1") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("/debug/pprof/heap: code %d len %d", rec.Code, rec.Body.Len())
	}
}

// TestObsRaceStress exercises every obs structure from concurrent writers
// and readers at once; meaningful mainly under -race.
func TestObsRaceStress(t *testing.T) {
	var h Histogram
	var c Counter
	ev := NewEvents()
	sl := NewSlowLog(16)
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Family("stress_total", "counter", "stress")
		e.Value("stress_total", float64(c.Load()))
		s := h.Snapshot()
		e.Family("stress_seconds", "histogram", "stress")
		e.Histogram("stress_seconds", &s)
	}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Record(time.Duration(i%1000) * time.Microsecond)
				c.Add(1)
				if i%100 == 0 {
					ev.Record("stress", time.Unix(int64(i), 0), time.Duration(i))
					sl.Add(int64(i), time.Duration(i), [][]byte{[]byte("SET"), []byte("k")})
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				_ = reg.WriteText(&buf)
				_ = sl.Get(-1)
				_ = ev.Latest()
				_ = ev.History("stress")
				s := h.Snapshot()
				_ = s.Quantile(0.999)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}
