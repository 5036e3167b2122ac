package server

import (
	"bytes"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the running code")

// Values that differ from run to run: wall-clock stamps and measured
// durations. Everything else in the texts below is a function of the command
// script and must not move.
var (
	goldenVolatileInfo   = regexp.MustCompile(`\b(uptime_in_seconds|last_checkpoint_unix|last_checkpoint_quiesce_us|last_checkpoint_total_us|last_checkpoint_fence_us|expiry_last_cycle_us|last_attach_us|last_fence_us|usec|usec_per_call|p50|p99|p99\.9)([:=])[0-9.]+`)
	goldenVolatileSample = regexp.MustCompile(`(?m)^(ralloc_[a-z_]*_seconds(?:_sum)?(?:\{[^}]*\})?) .*$`)
	goldenFiniteBucket   = regexp.MustCompile(`(?m)^ralloc_command_latency_seconds_bucket\{[^}]*le="[0-9][^}]*\} .*\n`)
)

func maskInfo(s string) string { return goldenVolatileInfo.ReplaceAllString(s, "$1$2<t>") }

// maskMetrics masks every duration sample and drops the finite histogram
// buckets (which of them are populated depends on the latencies measured);
// the +Inf bucket, _count, and every counter and gauge stay.
func maskMetrics(s string) string {
	s = goldenFiniteBucket.ReplaceAllString(s, "")
	return goldenVolatileSample.ReplaceAllString(s, "$1 <t>")
}

// goldenServer is a 2-shard file-backed primary wired the way
// cmd/ralloc-serve wires one, listening on sock.
func goldenServer(t *testing.T) (*Server, *cluster.Cluster, cluster.Config, string) {
	t.Helper()
	ccfg := cluster.Config{
		Shards:  2,
		Ralloc:  ralloc.Config{SBRegion: 16 << 20, Shards: 2, Pmem: pmem.Config{Mode: pmem.ModeFast}},
		Buckets: 256,
	}
	clus, err := cluster.Open(filepath.Join(t.TempDir(), "kv.heap"), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, sock := serveCluster(t, clus, Config{
		ReplBacklogBytes: 1 << 20,
		ReplID:           0x0123456789abcdef,
		InfoSections:     clus.Sections(),
	})
	return srv, clus, ccfg, sock
}

// serveCluster serves an open cluster the way cmd/ralloc-serve does, with
// replication wired, on a fresh unix socket until the test ends.
func serveCluster(t *testing.T, clus *cluster.Cluster, cfg Config) (*Server, string) {
	t.Helper()
	backends := make([]ShardBackend, len(clus.Shards))
	for i, sh := range clus.Shards {
		backends[i] = RegionBackend(sh.Alloc, sh.Store, sh.Heap.Region(), sh.Path, true)
	}
	srv := NewSharded(backends, cfg)
	sock := filepath.Join(t.TempDir(), "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return srv, sock
}

// TestInfoAndMetricsGolden pins the INFO and /metrics texts byte for byte: a
// 2-shard server with replication on and the embedder sections ralloc-serve
// wires, a fixed command script, one SAVE. The files under testdata/golden
// were written by the code before the stat table existed.
func TestInfoAndMetricsGolden(t *testing.T) {
	srv, clus, ccfg, sock := goldenServer(t)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	script := [][]string{
		{"SET", "a", "1"}, {"SET", "b", "22"}, {"SET", "c", "333"}, {"SET", "d", "4444"},
		{"GET", "a"}, {"GET", "nosuch"}, {"DEL", "b"}, {"INCR", "n"}, {"INCR", "a"},
		{"HSET", "h", "f1", "v1", "f2", "v2"}, {"HGET", "h", "f1"},
		{"RPUSH", "l", "x", "y", "z"}, {"LPOP", "l"},
		{"EXPIRE", "c", "100000"}, {"SETEX", "e", "100000", "v"},
		{"GET", "h"}, // WRONGTYPE: an error reply
		{"NOSUCHCOMMAND"},
		{"SAVE"},
		{"SET", "after-save", "v"},
	}
	for _, cmd := range script {
		if _, err := c.Do(cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}

	check := func(name, got string) {
		t.Helper()
		path := filepath.Join("testdata", "golden", name+".txt")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s\n--- got\n%s\n--- want\n%s", name, path, got, want)
		}
	}
	info := func(args ...string) string {
		t.Helper()
		rp, err := c.Do(append([]string{"INFO"}, args...)...)
		if err != nil || rp.Err() != nil {
			t.Fatalf("INFO %v: %v %v", args, err, rp.Err())
		}
		return maskInfo(string(rp.Bulk))
	}
	check("info", info())
	for _, name := range srv.Sections() {
		check("info-"+name, info(name))
	}
	check("info-unknown", info("nosuchsection"))

	reg := obs.NewRegistry()
	reg.Register(srv)
	reg.Register(clus)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	check("metrics", maskMetrics(buf.String()))
	if strings.Contains(buf.String(), "<t>") {
		t.Fatal("mask marker occurs in the raw text")
	}

	// A replica joins (full download, then the live link resumes from the
	// image's offset), one more write flows, and both ends' replication
	// sections are pinned: the replica-only keys and the per-sender line.
	rbase := filepath.Join(t.TempDir(), "replica.heap")
	if err := cluster.BootstrapReplica(io.Discard, rbase, 2, sock); err != nil {
		t.Fatal(err)
	}
	rclus, err := cluster.Open(rbase, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := Config{ReplBacklogBytes: 1 << 20, ReplicaOf: sock}
	rcfg.ReplID, rcfg.ReplOffset = rclus.Shards[0].Heap.Region().ReplMeta()
	_, rsock := serveCluster(t, rclus, rcfg)
	if err := c.Set("to-replica", "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n != 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	rc, err := Dial("unix", rsock)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	check("info-replication-primary", info("replication"))
	rp, err := rc.Do("INFO", "replication")
	if err != nil || rp.Err() != nil {
		t.Fatalf("replica INFO: %v %v", err, rp.Err())
	}
	check("info-replication-replica", strings.Replace(string(rp.Bulk), "upstream:"+sock, "upstream:<sock>", 1))
	buf.Reset()
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	check("metrics-primary-with-replica", maskMetrics(buf.String()))
}

// TestStatTableSelfCheck: within a section every INFO key is declared once,
// every /metrics family is declared once in the whole table and has a type
// Prometheus knows, and every key the benchmark reads from INFO resolves.
func TestStatTableSelfCheck(t *testing.T) {
	srv, _, _, _ := goldenServer(t)
	table := srv.stats
	keys := map[string]bool{}
	// The recovery rows exist only after a crash restart.
	for _, r := range (&cluster.Cluster{Recovered: true}).Sections()[2].Rows() {
		keys[r.Key] = true
	}
	families := map[string]bool{}
	family := func(where, name, typ, help string) {
		if name == "" {
			return
		}
		if families[name] {
			t.Errorf("%s: family %s declared twice", where, name)
		}
		families[name] = true
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			t.Errorf("%s: family %s has type %q", where, name, typ)
		}
		if help == "" || !strings.HasPrefix(name, "ralloc_") {
			t.Errorf("%s: family %q (help %q) is not a documented ralloc_ family", where, name, help)
		}
	}
	for _, name := range append(table.Names(), "") {
		inSection := map[string]bool{}
		for _, sec := range table.Named(name) {
			for _, r := range sec.Rows() {
				if k := r.Key + r.Member; k != "" {
					if inSection[k] {
						t.Errorf("section %q declares INFO key %s twice", name, k)
					}
					inSection[k], keys[k] = true, true
				}
				family(name, r.Metric, r.Type, r.Help)
				if r.Member == "0" || r.Member == "get" { // one member of each repeated block
					for _, c := range r.Sub {
						family(name, c.Metric, c.Type, c.Help)
					}
				}
			}
		}
	}
	for _, k := range []string{"sb_used_bytes", "evictions", "expired_reclaimed", "last_checkpoint_total_us",
		"last_checkpoint_fence_us", "last_attach_us", "recovery_total_us"} {
		if !keys[k] {
			t.Errorf("INFO key %s (read by benchmark/) is not in the table", k)
		}
	}
}
