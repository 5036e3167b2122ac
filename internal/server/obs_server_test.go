package server

import (
	"bytes"
	"maps"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Wire-level tests for the observability surface: SLOWLOG, LATENCY, the
// INFO sections they feed, and the registry-generated round-trip guarantee
// that every advertised section is individually addressable.

// obsTestSections is a representative embedder contribution: two standalone
// sections plus a "persistence" splice, mirroring what ralloc-serve wires in.
func obsTestSections() []InfoSection {
	return []InfoSection{
		{Name: "heap", Render: func() string { return "heap_bytes:123\r\n" }},
		{Name: "allocator", Render: func() string { return "shard0:refills=0\r\n" }},
		{Name: "persistence", Render: func() string { return "recovered_at_start:0\r\n" }},
	}
}

// TestInfoSectionsRoundTrip is registry-generated in the sense that it takes
// the section list from Server.Sections itself: every advertised name must
// round-trip through INFO <name> to exactly that one section. A section that
// INFO <name> cannot serve would silently fall back to the full block, which
// is what this pins against.
func TestInfoSectionsRoundTrip(t *testing.T) {
	ts := startServer(t, Config{InfoSections: obsTestSections()}, 0)
	c := dial(t, ts)
	// Populate commandstats/latencystats: they render only called commands.
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}

	names := ts.srv.Sections()
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			t.Fatalf("Sections() advertises %q twice", name)
		}
		seen[name] = true
		rp, err := c.Do("INFO", name)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Err(); err != nil {
			t.Fatalf("INFO %s: %v", name, err)
		}
		body := string(rp.Bulk)
		header, _, ok := strings.Cut(strings.TrimPrefix(body, "# "), "\r\n")
		if !strings.HasPrefix(body, "# ") || !ok {
			t.Fatalf("INFO %s reply does not start with a section header: %q", name, body)
		}
		if !strings.EqualFold(header, name) {
			t.Fatalf("INFO %s returned section %q", name, header)
		}
		if i := strings.Index(body, "\r\n# "); i >= 0 {
			t.Fatalf("INFO %s reply contains a second section (%q...): not a single-section round trip",
				name, body[i+2:min(i+20, len(body))])
		}
	}
	for _, want := range []string{"server", "persistence", "latencystats", "commandstats", "heap", "allocator"} {
		if !seen[want] {
			t.Fatalf("Sections() = %v is missing %q", names, want)
		}
	}

	// The embedder's "persistence" section splices into the builtin block
	// rather than appearing as its own (duplicate) header.
	rp, err := c.Do("INFO", "persistence")
	if err != nil {
		t.Fatal(err)
	}
	body := string(rp.Bulk)
	for _, want := range []string{"checkpoints:", "recovered_at_start:0"} {
		if !strings.Contains(body, want) {
			t.Fatalf("INFO persistence missing %q:\n%s", want, body)
		}
	}

	// INFO <section> reads that section and nothing else: a monitor polling
	// "INFO server" must not pay for the embedder's allocator walk, and an
	// embedder's section is rendered once, by its own name only.
	var mu sync.Mutex
	renders := map[string]int{}
	render := func(name, lines string) func() string {
		return func() string {
			mu.Lock()
			defer mu.Unlock()
			renders[name]++
			return lines
		}
	}
	counted := startServer(t, Config{InfoSections: []InfoSection{
		{Name: "heap", Render: render("heap", "heap_bytes:123\r\n")},
		{Name: "persistence", Render: render("persistence", "recovered_at_start:0\r\n")},
	}}, 0)
	cc := dial(t, counted)
	for _, tc := range []struct {
		section string
		want    map[string]int
	}{
		{"server", map[string]int{}},
		{"commandstats", map[string]int{}},
		{"heap", map[string]int{"heap": 1}},
		{"persistence", map[string]int{"persistence": 1}},
	} {
		mu.Lock()
		clear(renders)
		mu.Unlock()
		if rp, err := cc.Do("INFO", tc.section); err != nil || rp.Err() != nil {
			t.Fatalf("INFO %s: %v %v", tc.section, err, rp.Err())
		}
		mu.Lock()
		got := maps.Clone(renders)
		mu.Unlock()
		if !maps.Equal(got, tc.want) {
			t.Fatalf("INFO %s called embedder Render funcs %v, want %v", tc.section, got, tc.want)
		}
	}

	// Unknown sections keep the tolerant full-reply fallback.
	rp, err = c.Do("INFO", "nosuchsection")
	if err != nil {
		t.Fatal(err)
	}
	full := string(rp.Bulk)
	for _, want := range []string{"# Server\r\n", "# Heap\r\n", "# Persistence\r\n"} {
		if !strings.Contains(full, want) {
			t.Fatalf("INFO nosuchsection fallback missing %q", want)
		}
	}
}

// slowlogEntries decodes a SLOWLOG GET reply, asserting the classic 4-field
// entry shape as it goes.
func slowlogEntries(t *testing.T, rp Reply) []obs.SlowEntry {
	t.Helper()
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '*' {
		t.Fatalf("SLOWLOG GET reply kind %q", rp.Kind)
	}
	out := make([]obs.SlowEntry, 0, len(rp.Elems))
	for i, e := range rp.Elems {
		if e.Kind != '*' || len(e.Elems) != 4 {
			t.Fatalf("entry %d: want 4-element array, got %q", i, e.Text())
		}
		id, unix, usec, args := e.Elems[0], e.Elems[1], e.Elems[2], e.Elems[3]
		if id.Kind != ':' || unix.Kind != ':' || usec.Kind != ':' || args.Kind != '*' {
			t.Fatalf("entry %d: field kinds %q %q %q %q", i, id.Kind, unix.Kind, usec.Kind, args.Kind)
		}
		if unix.Int <= 0 || usec.Int < 0 {
			t.Fatalf("entry %d: unix=%d usec=%d", i, unix.Int, usec.Int)
		}
		se := obs.SlowEntry{ID: id.Int, Unix: unix.Int, Dur: time.Duration(usec.Int) * time.Microsecond}
		for _, a := range args.Elems {
			se.Args = append(se.Args, string(a.Bulk))
		}
		out = append(out, se)
	}
	return out
}

func TestSlowlogOverWire(t *testing.T) {
	ts := startServer(t, Config{SlowlogSlowerThan: -1, SlowlogMaxLen: 64}, 0)
	c := dial(t, ts)

	// A long-vector command (42 args) and an oversized value exercise both
	// record-time truncations.
	if err := c.Set("k", strings.Repeat("v", 200)); err != nil {
		t.Fatal(err)
	}
	hset := []string{"HSET", "h"}
	for i := 0; i < 20; i++ {
		hset = append(hset, "f"+strconv.Itoa(i), "v"+strconv.Itoa(i))
	}
	if _, err := c.HSet("h", hset[2:]...); err != nil {
		t.Fatal(err)
	}

	rp, err := c.Do("SLOWLOG", "GET")
	if err != nil {
		t.Fatal(err)
	}
	entries := slowlogEntries(t, rp)
	if len(entries) < 2 {
		t.Fatalf("want >=2 slowlog entries, got %d", len(entries))
	}
	// Newest first, IDs strictly decreasing down the reply.
	for i := 1; i < len(entries); i++ {
		if entries[i].ID >= entries[i-1].ID {
			t.Fatalf("entries not newest-first: id[%d]=%d id[%d]=%d", i-1, entries[i-1].ID, i, entries[i].ID)
		}
	}
	var hsetEnt, setEnt *obs.SlowEntry
	for i := range entries {
		switch entries[i].Args[0] {
		case "HSET":
			hsetEnt = &entries[i]
		case "SET":
			setEnt = &entries[i]
		}
	}
	if hsetEnt == nil || setEnt == nil {
		t.Fatalf("SET/HSET entries missing from slowlog: %+v", entries)
	}
	if len(hsetEnt.Args) != 32 {
		t.Fatalf("42-arg HSET should record 32 args, got %d", len(hsetEnt.Args))
	}
	if got, want := hsetEnt.Args[31], "... (11 more arguments)"; got != want {
		t.Fatalf("truncation marker %q, want %q", got, want)
	}
	if v := setEnt.Args[2]; len(v) != 131 || !strings.HasSuffix(v, "...") {
		t.Fatalf("200-byte arg should clip to 128+\"...\", got len %d (%q...)", len(v), v[:16])
	}

	// Bounded GET.
	rp, err = c.Do("SLOWLOG", "GET", "1")
	if err != nil {
		t.Fatal(err)
	}
	if got := slowlogEntries(t, rp); len(got) != 1 {
		t.Fatalf("SLOWLOG GET 1 returned %d entries", len(got))
	}

	n, err := c.intReply("SLOWLOG", "LEN")
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("SLOWLOG LEN = %d, want >=4", n)
	}

	// RESET empties the ring but IDs keep increasing across it.
	maxID := entries[0].ID
	if err := c.okReply("SLOWLOG", "RESET"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("after", "reset"); err != nil {
		t.Fatal(err)
	}
	rp, err = c.Do("SLOWLOG", "GET")
	if err != nil {
		t.Fatal(err)
	}
	after := slowlogEntries(t, rp)
	// Only the commands issued since RESET (including RESET's own record)
	// remain.
	if len(after) < 1 || len(after) > 3 {
		t.Fatalf("slowlog after RESET holds %d entries", len(after))
	}
	for _, e := range after {
		if e.ID <= maxID {
			t.Fatalf("post-RESET id %d did not advance past pre-RESET max %d", e.ID, maxID)
		}
	}

	rp, err = c.Do("SLOWLOG", "BOGUS")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' {
		t.Fatalf("SLOWLOG BOGUS should error, got %q", rp.Text())
	}
}

// TestSlowlogRingCap drives more distinct commands than SlowlogMaxLen and
// checks the ring stays bounded.
func TestSlowlogRingCap(t *testing.T) {
	ts := startServer(t, Config{SlowlogSlowerThan: -1, SlowlogMaxLen: 8}, 0)
	c := dial(t, ts)
	for i := 0; i < 40; i++ {
		if err := c.Set("k"+strconv.Itoa(i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.intReply("SLOWLOG", "LEN")
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("SLOWLOG LEN = %d with max-len 8", n)
	}
}

func TestLatencyOverWire(t *testing.T) {
	ts := startServerSave(t, Config{LatencyThreshold: -1}, 0, func() error { return nil })
	c := dial(t, ts)

	if err := c.Set("k", "v"); err != nil { // records a "command" event
		t.Fatal(err)
	}
	if err := c.okReply("SAVE"); err != nil { // checkpoint + checkpoint-fence
		t.Fatal(err)
	}
	// An embedder-recorded event, the way ralloc-serve reports attach and
	// recovery phases.
	ts.srv.Events().Record("attach", time.Now(), 5*time.Millisecond)

	rp, err := c.Do("LATENCY", "LATEST")
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]Reply)
	for _, r := range rp.Elems {
		if r.Kind != '*' || len(r.Elems) != 4 {
			t.Fatalf("LATENCY LATEST row shape: %q", r.Text())
		}
		rows[string(r.Elems[0].Bulk)] = r
	}
	for _, want := range []string{"command", "checkpoint", "checkpoint-fence", "attach"} {
		if _, ok := rows[want]; !ok {
			t.Fatalf("LATENCY LATEST missing event %q (have %v)", want, rows)
		}
	}
	attach := rows["attach"]
	if attach.Elems[1].Int <= 0 {
		t.Fatalf("attach unix = %d", attach.Elems[1].Int)
	}
	if attach.Elems[2].Int != 5 || attach.Elems[3].Int != 5 {
		t.Fatalf("attach latest/max = %d/%d ms, want 5/5", attach.Elems[2].Int, attach.Elems[3].Int)
	}

	rp, err = c.Do("LATENCY", "HISTORY", "attach")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Elems) != 1 || len(rp.Elems[0].Elems) != 2 || rp.Elems[0].Elems[1].Int != 5 {
		t.Fatalf("LATENCY HISTORY attach = %q", rp.Text())
	}
	rp, err = c.Do("LATENCY", "HISTORY", "nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '*' || len(rp.Elems) != 0 {
		t.Fatalf("LATENCY HISTORY nosuch = %q, want empty array", rp.Text())
	}

	if n, err := c.intReply("LATENCY", "RESET", "attach"); err != nil || n != 1 {
		t.Fatalf("LATENCY RESET attach = %d, %v", n, err)
	}
	rp, err = c.Do("LATENCY", "HISTORY", "attach")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Elems) != 0 {
		t.Fatalf("attach history survived RESET: %q", rp.Text())
	}
	if n, err := c.intReply("LATENCY", "RESET"); err != nil || n < 2 {
		t.Fatalf("LATENCY RESET (all) = %d, %v", n, err)
	}

	rp, err = c.Do("LATENCY", "BOGUS")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' {
		t.Fatalf("LATENCY BOGUS should error, got %q", rp.Text())
	}
}

// TestInfoObservabilitySections checks the content of the sections the new
// telemetry feeds: persistence checkpoint fields, latencystats percentiles,
// and that commandstats still renders its sampling-era line format.
func TestInfoObservabilitySections(t *testing.T) {
	ts := startServerSave(t, Config{}, 0, func() error { return nil })
	c := dial(t, ts)
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.okReply("SAVE"); err != nil {
		t.Fatal(err)
	}

	rp, err := c.Do("INFO", "persistence")
	if err != nil {
		t.Fatal(err)
	}
	pers := string(rp.Bulk)
	for _, want := range []string{
		"checkpoints:1\r\n", "checkpoint_errors:0\r\n",
		"last_checkpoint_unix:", "last_checkpoint_quiesce_us:", "last_checkpoint_total_us:",
	} {
		if !strings.Contains(pers, want) {
			t.Fatalf("INFO persistence missing %q:\n%s", want, pers)
		}
	}
	if strings.Contains(pers, "last_checkpoint_unix:0\r\n") {
		t.Fatalf("last_checkpoint_unix not stamped:\n%s", pers)
	}

	rp, err = c.Do("INFO", "latencystats")
	if err != nil {
		t.Fatal(err)
	}
	lat := string(rp.Bulk)
	if !strings.HasPrefix(lat, "# Latencystats\r\n") {
		t.Fatalf("latencystats header: %q", lat)
	}
	if !strings.Contains(lat, "latency_percentiles_usec_set:p50=") ||
		!strings.Contains(lat, ",p99=") || !strings.Contains(lat, ",p99.9=") {
		t.Fatalf("latencystats missing SET percentiles:\n%s", lat)
	}

	rp, err = c.Do("INFO", "commandstats")
	if err != nil {
		t.Fatal(err)
	}
	cs := string(rp.Bulk)
	if !strings.Contains(cs, "cmdstat_set:calls=1,usec=") || !strings.Contains(cs, ",usec_per_call=") {
		t.Fatalf("commandstats format drifted:\n%s", cs)
	}
}

// TestObsServerRaceStress hammers the whole observability surface under live
// traffic: wire writers, SLOWLOG/LATENCY/INFO readers over their own
// connections, and in-process snapshot + /metrics renders — the histogram
// writers vs. snapshot readers interleaving the race detector must bless.
func TestObsServerRaceStress(t *testing.T) {
	ts := startServerSave(t, Config{
		SlowlogSlowerThan: -1,
		SlowlogMaxLen:     32,
		LatencyThreshold:  -1,
		InfoSections:      obsTestSections(),
	}, 0, func() error { return nil })

	reg := obs.NewRegistry()
	reg.Register(ts.srv)

	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup

	// Clients are dialed here, in the test goroutine (dial may t.Fatal).
	writers := make([]*Client, 4)
	for w := range writers {
		writers[w] = dial(t, ts)
	}
	reader := dial(t, ts)

	for w := 0; w < len(writers); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := writers[w]
			key := "stress-" + strconv.Itoa(w)
			for i := 0; time.Now().Before(deadline); i++ {
				if err := c.Set(key, strconv.Itoa(i)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() { // wire reader: SLOWLOG + LATENCY + INFO
		defer wg.Done()
		c := reader
		for time.Now().Before(deadline) {
			for _, cmd := range [][]string{
				{"SLOWLOG", "GET", "10"}, {"SLOWLOG", "LEN"},
				{"LATENCY", "LATEST"}, {"INFO", "latencystats"}, {"INFO", "persistence"},
			} {
				rp, err := c.Do(cmd...)
				if err != nil {
					t.Error(err)
					return
				}
				if err := rp.Err(); err != nil {
					t.Errorf("%v: %v", cmd, err)
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() { // in-process reader: merged snapshot + Prometheus render
		defer wg.Done()
		var buf bytes.Buffer
		for time.Now().Before(deadline) {
			snap := ts.srv.LatencySnapshot()
			if snap.Count > 0 && snap.Quantile(0.99) < 0 {
				t.Error("negative p99")
				return
			}
			buf.Reset()
			if err := reg.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Contains(buf.Bytes(), []byte("ralloc_commands_processed_total")) {
				t.Error("metrics render missing command counter")
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // checkpoint writer: quiesce barrier + event recording
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := ts.srv.Save(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Wait()

	// The traffic must have left coherent telemetry behind.
	snap := ts.srv.LatencySnapshot()
	if snap.Count == 0 {
		t.Fatal("no commands recorded in latency histograms")
	}
	if ts.srv.slow.Len() == 0 {
		t.Fatal("slowlog empty after log-everything traffic")
	}
}
