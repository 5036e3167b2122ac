package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
	"repro/internal/resp"
	"repro/internal/server"
)

// servedConfig is testConfig as ralloc-serve opens its heaps: ModeFast
// regions, and a fixed allocator-shard count so label sets do not depend on
// the machine's GOMAXPROCS.
func servedConfig(n int) Config {
	cfg := testConfig(n)
	cfg.Ralloc.Pmem.Mode = pmem.ModeFast
	cfg.Ralloc.Shards = 2
	return cfg
}

// churn drives every shard's allocator through its slow paths (refill,
// drain, grow) so the counters under test are non-zero.
func churn(t *testing.T, c *Cluster) {
	t.Helper()
	fill(t, c, 300)
	for i, sh := range c.Shards {
		hd := sh.Alloc.NewHandle()
		for j := 0; j < 300; j += 2 {
			sh.Store.Delete(hd, []byte(fmt.Sprintf("s%d-key-%04d", i, j)))
		}
	}
}

// infoFields parses "k:v\r\n" lines; a breakdown line's value is itself
// "k=v,k=v".
func infoFields(t *testing.T, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(s, "\r\n"), "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("malformed INFO line %q in:\n%s", line, s)
		}
		out[k] = v
	}
	return out
}

// TestAllocatorInfoTotalsSumBreakdown: at one heap ("shardN:" lines) and at
// four ("heapN:" lines) every total in INFO allocator is the sum of the
// breakdown lines below it, and the field names and order are the ones
// operators parse.
func TestAllocatorInfoTotalsSumBreakdown(t *testing.T) {
	for n, prefix := range map[int]string{1: "shard", 4: "heap"} {
		c, err := Open("", servedConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		churn(t, c)
		info := c.AllocatorInfo()
		if !strings.HasPrefix(info, "shards:2\r\nrefills:") {
			t.Fatalf("n=%d: section head:\n%s", n, info)
		}
		fields := infoFields(t, info)
		rows := n
		if n == 1 {
			rows = 2 // one line per allocator shard
		}
		if len(fields) != 1+len(ralloc.ShardStatFields)+rows {
			t.Fatalf("n=%d: %d lines, want shards + %d totals + %d %s lines:\n%s",
				n, len(fields), len(ralloc.ShardStatFields), rows, prefix, info)
		}
		sums := map[string]uint64{}
		for i := 0; i < rows; i++ {
			line, ok := fields[prefix+strconv.Itoa(i)]
			if !ok {
				t.Fatalf("n=%d: no %s%d line:\n%s", n, prefix, i, info)
			}
			pairs := strings.Split(line, ",")
			for f, kv := range pairs {
				k, v, _ := strings.Cut(kv, "=")
				if want := ralloc.ShardStatFields[f].Key; k != want {
					t.Fatalf("n=%d: %s%d field %d is %q, want %q", n, prefix, i, f, k, want)
				}
				x, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				sums[k] += x
			}
		}
		for _, f := range ralloc.ShardStatFields {
			if got := fields[f.Key]; got != strconv.FormatUint(sums[f.Key], 10) {
				t.Errorf("n=%d: total %s = %s, breakdown lines sum to %d", n, f.Key, got, sums[f.Key])
			}
		}
		if sums["refills"] == 0 || sums["grows"] == 0 {
			t.Errorf("n=%d: churn moved no counters: %v", n, sums)
		}
	}
}

var sampleValue = regexp.MustCompile(` [^ ]+$`)

// render is c's /metrics text.
func render(t *testing.T, c obs.Collector) string {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Register(c)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// series returns c's sorted HELP/TYPE headers and sample names with their
// label sets, values stripped.
func series(t *testing.T, c obs.Collector) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(render(t, c)), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = sampleValue.ReplaceAllString(line, "")
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// TestCollectSameSeriesAtOneAndFourShards is what licenses registering the
// cluster, never a heap, with /metrics: over one heap the summed collector
// emits exactly what the heap's own collector does, and over four heaps the
// same families with the same label sets.
func TestCollectSameSeriesAtOneAndFourShards(t *testing.T) {
	c1, err := Open("", servedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	c4, err := Open("", servedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c1)
	churn(t, c4)

	if got, want := render(t, c1), render(t, c1.Shards[0].Heap); got != want {
		t.Fatalf("one-heap cluster renders differently from its heap:\n--- cluster\n%s--- heap\n%s", got, want)
	}

	s1, s4 := series(t, c1), series(t, c4)
	if strings.Join(s1, "\n") != strings.Join(s4, "\n") {
		t.Fatalf("series differ between 1 and 4 shards:\n--- 1\n%s\n--- 4\n%s", strings.Join(s1, "\n"), strings.Join(s4, "\n"))
	}
	for _, want := range []string{
		"# TYPE ralloc_allocator_refills_total counter",
		`ralloc_allocator_refills_total{shard="1"}`,
		`ralloc_allocator_partial_superblocks{shard="0"}`,
		"ralloc_allocator_sb_used_bytes",
	} {
		if i := sort.SearchStrings(s4, want); i == len(s4) || s4[i] != want {
			t.Errorf("series lack %q:\n%s", want, strings.Join(s4, "\n"))
		}
	}
}

// serve puts c behind a replication-enabled server on a unix socket, the way
// ralloc-serve wires it.
func serve(t *testing.T, c *Cluster, sock string) *server.Server {
	t.Helper()
	backends := make([]server.ShardBackend, len(c.Shards))
	for i, sh := range c.Shards {
		backends[i] = server.RegionBackend(sh.Alloc, sh.Store, sh.Heap.Region(), sh.Path, true)
	}
	cfg := server.Config{ReplBacklogBytes: 1 << 20}
	cfg.ReplID, cfg.ReplOffset = c.Shards[0].Heap.Region().ReplMeta()
	srv := server.NewSharded(backends, cfg)
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return srv
}

// TestServedLifecycle walks one dataset through what ralloc-serve does
// around serving — create, SAVE, more writes, kill, recover, clean close,
// reopen — and a replica through bootstrap and resume, checking at each step
// the startup lines, the INFO persistence and heap sections, the startup
// events and the stream position: stamped at close, absent from a killed
// heap.
func TestServedLifecycle(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "p.sock")
	report := func(c *Cluster) string {
		var b bytes.Buffer
		c.Report(&b, 256, 0)
		return b.String()
	}

	c, err := Open(base, servedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mapped := "heap mapped from " + base + ": "
	if got := report(c); !strings.HasPrefix(got, "created store (256 buckets, bound 0 MB)\n"+mapped) {
		t.Fatalf("fresh open reports %q", got)
	}
	if got := c.PersistenceInfo(); !strings.HasPrefix(got, "recovered_at_start:false\r\nlast_attach_us:") || strings.Contains(got, "recovery_") {
		t.Fatalf("persistence without recovery:\n%s", got)
	}
	if got := c.HeapInfo(); !strings.HasSuffix(got, "heap_dirty_at_open:false\r\n") {
		t.Fatalf("heap section: %q", got)
	}
	srv := serve(t, c, sock)
	cl, err := server.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cl.Set(fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	// A replica with no image downloads one (the primary SAVEs to make it);
	// asked again, its stamped position is still in the backlog and it
	// resumes instead.
	rbase := filepath.Join(dir, "replica.heap")
	var out bytes.Buffer
	if err := BootstrapReplica(&out, rbase, 1, sock); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "bootstrapped 1 image(s) from "+sock) {
		t.Fatalf("bootstrap reported %q", &out)
	}
	out.Reset()
	if err := BootstrapReplica(&out, rbase, 1, sock); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "resuming replication at offset ") {
		t.Fatalf("second bootstrap reported %q", &out)
	}
	rc, err := Open(rbase, servedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Recovered || rc.Records() != 50 {
		t.Fatalf("replica image: recovered=%v records=%d, want a dirty image of 50", rc.Recovered, rc.Records())
	}

	// Kill the primary. The bootstrap's SAVE went to the backup beside the
	// heap; what the kill leaves is the heap itself, writes since included,
	// and no stream position a restart could wrongly resume from.
	if _, err := os.Stat(base + ".save"); err != nil {
		t.Fatalf("the bootstrap's SAVE left no backup: %v", err)
	}
	for i := 50; i < 60; i++ {
		if err := cl.Set(fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Abort()
	if id, off, err := pmem.ReadImageMeta(base); err != nil || id != 0 || off != 0 {
		t.Fatalf("killed heap stamped (%#x, %d, %v), want no position", id, off, err)
	}
	c, err = Open(base, servedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := report(c); !strings.HasPrefix(got, "recovered after crash: ") || !strings.Contains(got, "; 60 records\n"+mapped) {
		t.Fatalf("crash reopen reports %q", got)
	}
	p := infoFields(t, c.PersistenceInfo())
	if p["recovered_at_start"] != "true" || p["recovery_reachable_blocks"] == "0" || p["recovery_reachable_blocks"] == "" || p["recovery_total_us"] == "" {
		t.Fatalf("persistence with recovery: %v", p)
	}
	if got := c.HeapInfo(); !strings.HasSuffix(got, "heap_dirty_at_open:true\r\n") {
		t.Fatalf("heap section after crash: %q", got)
	}
	// Recovery writes back the descriptors it retired, one line each, and
	// nothing else it rebuilt.
	if n, err := strconv.ParseUint(p["recovery_flushes"], 10, 64); err != nil || n == 0 || n != c.RecStats.FreeSuperblocks {
		t.Fatalf("recovery_flushes %q, want the %d superblocks recovery retired", p["recovery_flushes"], c.RecStats.FreeSuperblocks)
	}
	ev := obs.NewEvents()
	c.RecordStartup(ev)
	var names []string
	for _, e := range ev.Latest() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != "attach recovery recovery-sweep recovery-trace" {
		t.Fatalf("startup events = %q", got)
	}

	// Clean close stamps where the stream stopped; the next open is clean.
	c.StampReplMeta(0, 99) // replication off: nothing stamped
	c.StampReplMeta(0xfeed, 4242)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if id, off, err := pmem.ReadImageMeta(base); err != nil || id != 0xfeed || off != 4242 {
		t.Fatalf("closed image stamped (%#x, %d, %v), want (0xfeed, 4242)", id, off, err)
	}
	c, err = Open(base, servedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := report(c); !strings.HasPrefix(got, "reopened after clean shutdown: 60 records\n"+mapped) {
		t.Fatalf("clean reopen reports %q", got)
	}
	if id, off := c.Shards[0].Heap.Region().ReplMeta(); id != 0xfeed || off != 4242 {
		t.Fatalf("reopened heap resumes at (%#x, %d), want (0xfeed, 4242)", id, off)
	}
}

// TestBootstrapReplicaProbesOnlyConsistentImages: the position a restart
// resumes from is shard 0's stamp, and it is offered to the primary only
// when every shard image exists and carries that same stamp. A set an
// earlier failure left incomplete or mixed asks for a full resync instead —
// the primary answering CONTINUE to it would leave stale or empty shards
// being served under a current stream position.
func TestBootstrapReplicaProbesOnlyConsistentImages(t *testing.T) {
	stamped := func(id, off uint64) []byte {
		r := pmem.NewRegion(64<<10, pmem.Config{Mode: pmem.ModeFast})
		r.SetReplMeta(id, off)
		var b bytes.Buffer
		if err := r.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	dir := t.TempDir()
	sock := filepath.Join(dir, "p.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	asked := make(chan string, 1)
	fresh := stamped(0xbbbb, 9000)
	go func() { // a primary whose backlog covers nothing: always two fresh images
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if args, _, err := repl.ReadEntry(resp.NewReader(conn)); err == nil && len(args) == 3 {
				asked <- string(args[1])
				repl.WriteFullResync(conn, 0xbbbb, 9000, 2)
				repl.CopyImageChunksAbort(conn, bytes.NewReader(fresh), nil)
				repl.CopyImageChunksAbort(conn, bytes.NewReader(fresh), nil)
			}
			conn.Close()
		}
	}()

	for _, tc := range []struct {
		name           string
		shard0, shard1 []byte
		want           string
	}{
		{"no images", nil, nil, "?"},
		{"same stamp", stamped(0xaaaa, 100), stamped(0xaaaa, 100), "000000000000aaaa"},
		{"shard 1 missing", stamped(0xaaaa, 100), nil, "?"},
		{"shard 1 older", stamped(0xaaaa, 100), stamped(0xaaaa, 50), "?"},
		{"shard 0 missing", nil, stamped(0xaaaa, 100), "?"},
	} {
		base := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".heap")
		for i, img := range [][]byte{tc.shard0, tc.shard1} {
			if img != nil {
				if err := os.WriteFile(ShardPath(base, i), img, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := BootstrapReplica(io.Discard, base, 2, sock); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := <-asked; got != tc.want {
			t.Errorf("%s: replica asked PSYNC %s, want %s", tc.name, got, tc.want)
		}
		for i := 0; i < 2; i++ {
			if id, off, err := pmem.ReadImageMeta(ShardPath(base, i)); err != nil || id != 0xbbbb || off != 9000 {
				t.Errorf("%s: shard %d stamped (%#x, %d), %v after the download", tc.name, i, id, off, err)
			}
		}
	}
}
