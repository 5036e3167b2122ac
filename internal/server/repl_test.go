package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
	"repro/internal/resp"
)

// replNode is one replication-enabled server in this process on a mapped
// heap file, opened and closed the way ralloc-serve opens and closes one:
// the replica bootstrap, cluster.Open, RegionBackend.
type replNode struct {
	sock string
	clus *cluster.Cluster
	st   *kvstore.Store
	srv  *Server
}

// openReplNode starts a node in dir (primary when replicaOf is empty). A
// replica bootstraps first (cluster.BootstrapReplica): it resumes from the
// position a clean stop stamped in the heap, and downloads fresh images
// otherwise. Reopening a dir whose server was killed (killNode) maps the
// heap the kill left and recovers it, as after a SIGKILL'd ralloc-serve.
func openReplNode(t *testing.T, dir, replicaOf string, tweak func(*Config)) *replNode {
	t.Helper()
	base := filepath.Join(dir, "kv.heap")
	if replicaOf != "" {
		if err := cluster.BootstrapReplica(io.Discard, base, 1, replicaOf); err != nil {
			t.Fatalf("replica bootstrap: %v", err)
		}
	}
	clus, err := cluster.Open(base, cluster.Config{Shards: 1, Buckets: 1024,
		Ralloc: ralloc.Config{SBRegion: 16 << 20, Pmem: pmem.Config{Mode: pmem.ModeFast}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ReplBacklogBytes: 1 << 20, ReplicaOf: replicaOf}
	cfg.ReplID, cfg.ReplOffset = clus.Shards[0].Heap.Region().ReplMeta()
	if tweak != nil {
		tweak(&cfg)
	}
	srv, sock := serveCluster(t, clus, cfg)
	return &replNode{sock: sock, clus: clus, st: clus.Shards[0].Store, srv: srv}
}

// killNode is SIGKILL in process: the server stops dead and the heap is left
// open, its file holding every entry the node applied and no feed position.
func killNode(n *replNode) { n.srv.Abort() }

// stopNode is ralloc-serve's clean stop: drain, stamp the feed position the
// node stopped at, close the heap.
func stopNode(t *testing.T, n *replNode) {
	t.Helper()
	n.srv.Shutdown(2 * time.Second)
	n.clus.StampReplMeta(n.srv.ReplMeta())
	if err := n.clus.Close(); err != nil {
		t.Fatal(err)
	}
}

func dialNode(t *testing.T, n *replNode) *Client {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := DialTimeout("unix", n.sock, time.Second)
		if err == nil {
			t.Cleanup(func() { c.Close() })
			return c
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationBasic: a replica bootstrapped from a primary's checkpoint
// follows the live feed, refuses client writes with -READONLY, and WAIT on
// the primary observes the replica's acknowledgments.
func TestReplicationBasic(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	replica := openReplNode(t, t.TempDir(), primary.sock, nil)
	rc := dialNode(t, replica)

	// More writes after the replica attached, then WAIT: once one replica
	// has acknowledged the barrier offset, every prior write is applied.
	for i := 50; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT 1 = %d, %v", n, err)
	}
	for _, i := range []int{0, 49, 50, 99} {
		v, ok, err := rc.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || v != fmt.Sprintf("v%02d", i) {
			t.Fatalf("replica GET k%02d = (%q,%v,%v)", i, v, ok, err)
		}
	}

	// Replica refuses writes.
	if rp, err := rc.Do("SET", "nope", "x"); err != nil || !strings.Contains(rp.Str, "READONLY") {
		t.Fatalf("replica SET = %+v, %v (want READONLY)", rp, err)
	}
	// And refuses them at MULTI queue time too.
	if err := rc.Multi(); err != nil {
		t.Fatal(err)
	}
	if rp, err := rc.Do("SET", "nope", "x"); err != nil || !strings.Contains(rp.Str, "READONLY") {
		t.Fatalf("replica queued SET = %+v, %v (want READONLY)", rp, err)
	}
	if _, err := rc.Exec(); err == nil || !strings.Contains(err.Error(), "EXECABORT") {
		t.Fatalf("EXEC after READONLY queue error = %v (want EXECABORT)", err)
	}

	// Roles in INFO.
	for _, tc := range []struct {
		c    *Client
		want string
	}{{c, "role:primary"}, {rc, "role:replica"}} {
		rp, err := tc.c.Do("INFO", "replication")
		if err != nil || !strings.Contains(string(rp.Bulk), tc.want) {
			t.Fatalf("INFO replication = %v, %v (want %s)", rp.Text(), err, tc.want)
		}
	}

	// WAIT for more replicas than exist times out with the real count.
	if n, err := c.Wait(2, 100*time.Millisecond); err != nil || n != 1 {
		t.Fatalf("WAIT 2 = %d, %v (want 1)", n, err)
	}
}

// TestEveryWriteCommandPropagates is generated from the registry: every
// FlagWrite command's successful invocation must append exactly one feed
// entry, carrying the executed args — or the clock-free rewrite for the
// EXPIRE/SETEX families, whose relative durations must not reach a replica.
// The samples are writeSamples (persistwrite_test.go). The primary is a fresh
// one, whose feed only counts until the switch its first full sync makes.
func TestEveryWriteCommandPropagates(t *testing.T) {
	cmds := writeCommands(t)
	n := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, n)
	rs := n.srv.repl
	if !rs.counting {
		t.Fatal("a fresh primary retains before any replica")
	}
	n.srv.saveMu.Lock()
	rs.retain()
	n.srv.saveMu.Unlock()
	feed := rs.feed

	readEntries := func(off uint64) [][][]byte {
		cur, ok := feed.CursorAt(off)
		if !ok {
			t.Fatalf("backlog no longer covers offset %d", off)
		}
		p, err := cur.NextEntries(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		var out [][][]byte
		br := bufio.NewReader(bytes.NewReader(p))
		for total := 0; total < len(p); {
			args, raw, err := repl.ReadEntry(br)
			if err != nil {
				t.Fatalf("decoding feed entry: %v", err)
			}
			out = append(out, args)
			total += len(raw)
		}
		return out
	}

	for _, cmd := range cmds {
		s := writeSamples[cmd.Name]
		for _, pre := range s.setup {
			if rp, err := c.Do(pre...); err != nil || rp.Kind == '-' {
				t.Fatalf("%s setup %v: err=%v reply=%+v", cmd.Name, pre, err, rp)
			}
		}
		// Consume setup entries so the measured window is this command only.
		off0 := feed.Offset()
		before := time.Now().UnixMilli()
		rp, err := c.Do(s.cmd...)
		if err != nil {
			t.Fatalf("%s: %v", cmd.Name, err)
		}
		if rp.Kind == '-' {
			t.Fatalf("%s replied error %q: sample must succeed", cmd.Name, rp.Str)
		}
		if feed.Offset() == off0 {
			t.Errorf("%s (%s): successful write propagated no feed entry", cmd.Name, strings.Join(s.cmd, " "))
			continue
		}
		entries := readEntries(off0)
		if len(entries) != 1 {
			t.Errorf("%s: %d feed entries for one invocation (want exactly 1)", cmd.Name, len(entries))
			continue
		}
		got := entries[0]
		wantName := cmd.Name
		if s.rewrite != "" {
			wantName = s.rewrite
		}
		if string(got[0]) != wantName {
			t.Errorf("%s: propagated as %q (want %q)", cmd.Name, got[0], wantName)
			continue
		}
		if s.rewrite == "" {
			if len(got) != len(s.cmd) {
				t.Errorf("%s: propagated %d args, sent %d", cmd.Name, len(got), len(s.cmd))
				continue
			}
			for i, a := range s.cmd {
				if string(got[i]) != a {
					t.Errorf("%s: propagated arg %d = %q, sent %q", cmd.Name, i, got[i], a)
				}
			}
			continue
		}
		// Rewritten forms carry the key and an absolute unix-ms deadline in
		// the future (resolved against the primary's clock at execute time).
		if string(got[1]) != s.cmd[1] {
			t.Errorf("%s: rewrite key = %q (want %q)", cmd.Name, got[1], s.cmd[1])
		}
		at, err := strconv.ParseInt(string(got[2]), 10, 64)
		if err != nil || at < before {
			t.Errorf("%s: rewrite deadline %q not an absolute future unix-ms stamp (err=%v)", cmd.Name, got[2], err)
		}
		if wantName == "PSETEXAT" && string(got[3]) != s.cmd[3] {
			t.Errorf("%s: rewrite value = %q (want %q)", cmd.Name, got[3], s.cmd[3])
		}
	}

	// Error replies propagate nothing.
	off0 := feed.Offset()
	if rp, _ := c.Do("INCR", "pw:set"); rp.Kind != '-' {
		t.Fatalf("INCR on a non-integer = %+v (want error)", rp)
	}
	if rp, _ := c.Do("SETEX", "rp:bad", "-1", "v"); rp.Kind != '-' {
		t.Fatalf("SETEX with negative ttl = %+v (want error)", rp)
	}
	if feed.Offset() != off0 {
		t.Fatal("failed writes appended feed entries")
	}

	// Writes inside EXEC propagate individually.
	if _, err := c.Txn([]string{"SET", "rp:txn1", "a"}, []string{"SET", "rp:txn2", "b"}); err != nil {
		t.Fatal(err)
	}
	if entries := readEntries(off0); len(entries) != 2 {
		t.Fatalf("EXEC of 2 writes propagated %d entries", len(entries))
	}
}

// TestReplicaExpirySemantics: a replica never reclaims expired keys on its
// own — the primary's active cycle is the only expiry authority, and each
// reclamation reaches the replica as an ordered DEL through the feed.
func TestReplicaExpirySemantics(t *testing.T) {
	expiry := func(cfg *Config) {
		cfg.ActiveExpiryInterval = 5 * time.Millisecond
		cfg.ActiveExpirySample = 100
	}
	primary := openReplNode(t, t.TempDir(), "", expiry)
	c := dialNode(t, primary)
	// The replica runs the same active-expiry configuration: the test
	// proves the cycle is inert in the replica role, not merely unstarted.
	replica := openReplNode(t, t.TempDir(), primary.sock, expiry)
	rc := dialNode(t, replica)

	if err := c.Set("stable", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.PSetEx("doomed", 80, "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	if _, ok, _ := rc.Get("doomed"); !ok {
		t.Fatal("replica missing doomed before its deadline")
	}

	// The primary's cycle reclaims; the DEL must reach the replica and
	// physically remove the record there.
	waitFor(t, 5*time.Second, "propagated DEL to apply", func() bool {
		return replica.st.Stats().Deletes >= 1
	})
	if _, ok, _ := rc.Get("doomed"); ok {
		t.Fatal("doomed still readable on replica after propagated DEL")
	}
	if v, ok, _ := rc.Get("stable"); !ok || v != "v" {
		t.Fatal("stable key lost on replica")
	}
	// The replica never ran a reclamation of its own.
	if got := replica.st.Stats().Reclaimed; got != 0 {
		t.Fatalf("replica reclaimed %d keys itself (must be 0: primary is the expiry authority)", got)
	}
	if got := primary.st.Stats().Reclaimed; got == 0 {
		t.Fatal("primary never reclaimed — test exercised nothing")
	}

	// No resurrection: re-creating the key on the primary after the DEL
	// converges the replica to the new value.
	if err := c.Set("doomed", "reborn"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	if v, ok, _ := rc.Get("doomed"); !ok || v != "reborn" {
		t.Fatalf("replica doomed = (%q,%v) after re-create", v, ok)
	}
}

// TestShutdownAbortsPSync: a primary shutting down mid-stream ends an
// in-flight PSYNC with a clean "-ERR" line at an entry boundary — the
// replica-side reader surfaces ErrStreamAbort, not a hang or a torn entry —
// and Shutdown itself is not blocked by the open stream.
func TestShutdownAbortsPSync(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := net.Dial("unix", primary.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(repl.AppendEntry(nil, [][]byte{[]byte("PSYNC"), []byte("?"), []byte("0")})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	h, err := repl.ReadHandshake(br)
	if err != nil || !h.Full {
		t.Fatalf("handshake = %+v, %v", h, err)
	}
	if _, err := repl.ReadImage(br, discardWriter{}); err != nil {
		t.Fatal(err)
	}
	// The stream is now idle past the image. Close the ordinary client so
	// the only thing keeping Shutdown from draining is the PSYNC stream
	// itself — the hang this test guards against.
	c.Close()
	done := make(chan error, 1)
	go func() { done <- primary.srv.Shutdown(5 * time.Second) }()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = repl.ReadEntry(br)
	if err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("mid-PSYNC shutdown surfaced %v (want a clean abort naming shutdown)", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung behind an open PSYNC stream")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestFailoverPromote: the in-process failover drill — write through the
// primary, WAIT for the replica to acknowledge, hard-kill the primary, and
// promote the replica, which must then serve every acknowledged write and
// accept new ones under a fresh stream ID.
func TestFailoverPromote(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	replica := openReplNode(t, t.TempDir(), primary.sock, nil)
	rc := dialNode(t, replica)

	const total = 200
	for i := 0; i < total; i++ {
		if err := c.Set(fmt.Sprintf("fo-%03d", i), fmt.Sprintf("v-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	oldID := replica.srv.repl.feed.ID()

	killNode(primary)
	if err := rc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if id := replica.srv.repl.feed.ID(); id == oldID {
		t.Fatal("promotion kept the old stream ID — stale replicas could silently partial-resync across the divergence")
	}
	for _, i := range []int{0, 77, total - 1} {
		v, ok, err := rc.Get(fmt.Sprintf("fo-%03d", i))
		if err != nil || !ok || v != fmt.Sprintf("v-%03d", i) {
			t.Fatalf("promoted replica lost fo-%03d: (%q,%v,%v)", i, v, ok, err)
		}
	}
	if err := rc.Set("post-promote", "ok"); err != nil {
		t.Fatalf("promoted replica refused a write: %v", err)
	}
	rp, err := rc.Do("INFO", "replication")
	if err != nil || !strings.Contains(string(rp.Bulk), "role:primary") {
		t.Fatalf("INFO after promote = %v, %v (want role:primary)", rp.Text(), err)
	}
	// Promotion is idempotent.
	if err := rc.Promote(); err != nil {
		t.Fatalf("second promote: %v", err)
	}
}

// TestReplicaKillRedownloadsImage: a replica killed mid-feed restarts with
// a heap holding every entry it applied and no position to resume from, so
// it downloads a fresh image and converges; no INCR is applied twice.
func TestReplicaKillRedownloadsImage(t *testing.T) {
	if fulls, _ := replicaRestart(t, killNode); fulls != 1 {
		t.Fatalf("the killed replica's restart took %d full resyncs, want 1", fulls)
	}
}

// TestReplicaStopPartialResync: a replica stopped cleanly mid-feed resumes
// from the position its stop stamped, by partial resync over the writes it
// missed; no INCR is applied twice.
func TestReplicaStopPartialResync(t *testing.T) {
	stop := func(n *replNode) { stopNode(t, n) }
	if fulls, partials := replicaRestart(t, stop); fulls != 0 || partials == 0 {
		t.Fatalf("the stopped replica's restart took %d full and %d partial resyncs, want 0 and some", fulls, partials)
	}
}

// replicaRestart feeds INCRs to a replica, takes it down with down while a
// batch of them is in flight, and restarts it while more come: every INCR
// the primary answered must be applied on the replica exactly once. It
// returns the full and partial resyncs the restart took.
func replicaRestart(t *testing.T, down func(*replNode)) (fulls, partials uint64) {
	t.Helper()
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	rdir := t.TempDir()
	replica := openReplNode(t, rdir, primary.sock, nil)

	const counters = 4
	send := func(n int) {
		t.Helper()
		for i := range n * counters {
			if err := c.Send("INCR", fmt.Sprintf("ctr-%d", i%counters)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(n int) {
		t.Helper()
		for range n * counters {
			if rp, err := c.Recv(); err != nil || rp.Err() != nil {
				t.Fatalf("INCR = %+v, %v", rp, err)
			}
		}
	}
	wait := func(what string) {
		t.Helper()
		if n, err := c.Wait(1, 10*time.Second); err != nil || n < 1 {
			t.Fatalf("WAIT %s = %d, %v", what, n, err)
		}
	}
	send(25)
	recv(25)
	wait("before the restart")

	_, applied := replica.srv.ReplMeta()
	send(200)
	waitFor(t, 10*time.Second, "the replica to apply part of the batch", func() bool {
		_, off := replica.srv.ReplMeta()
		return off > applied
	})
	down(replica)
	recv(200)
	send(25) // missed while the replica is down
	recv(25)

	fulls0, partials0 := primary.srv.repl.fullSyncs.Load(), primary.srv.repl.partialSyncs.Load()
	rc := dialNode(t, openReplNode(t, rdir, primary.sock, nil))
	send(25) // after the restart
	recv(25)
	wait("after the restart")
	for i := range counters {
		key := fmt.Sprintf("ctr-%d", i)
		if v, ok, err := rc.Get(key); err != nil || !ok || v != "275" {
			t.Fatalf("restarted replica %s = (%q,%v,%v), want 275: each of the primary's INCRs once", key, v, ok, err)
		}
	}
	return primary.srv.repl.fullSyncs.Load() - fulls0, primary.srv.repl.partialSyncs.Load() - partials0
}

// TestReplicaKillFullRebootstrap: same kill, but the primary's backlog is
// too small to retain the gap — the restarted replica's probe is answered
// with FULLRESYNC, it downloads a fresh image on the same connection, and
// converges through the full re-bootstrap path.
func TestReplicaKillFullRebootstrap(t *testing.T) {
	small := func(cfg *Config) { cfg.ReplBacklogBytes = 2048 }
	primary := openReplNode(t, t.TempDir(), "", small)
	c := dialNode(t, primary)
	rdir := t.TempDir()
	replica := openReplNode(t, rdir, primary.sock, nil)

	if err := c.Set("anchor", "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	killNode(replica)

	// Push far more than 2048 bytes through the feed: the dead replica's
	// offset scrolls out of the backlog.
	val := strings.Repeat("x", 64)
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("fb-%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}

	fulls0 := primary.srv.repl.fullSyncs.Load()
	replica2 := openReplNode(t, rdir, primary.sock, nil)
	rc := dialNode(t, replica2)
	if n, err := c.Wait(1, 10*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT after re-bootstrap = %d, %v", n, err)
	}
	for _, i := range []int{0, 100, 199} {
		v, ok, err := rc.Get(fmt.Sprintf("fb-%03d", i))
		if err != nil || !ok || v != val {
			t.Fatalf("re-bootstrapped replica fb-%03d = (%v,%v)", i, ok, err)
		}
	}
	if v, ok, _ := rc.Get("anchor"); !ok || v != "v" {
		t.Fatal("anchor key lost across re-bootstrap")
	}
	if fulls := primary.srv.repl.fullSyncs.Load(); fulls == fulls0 {
		t.Fatal("restart did not take a full resync despite backlog loss")
	}
	// And the re-bootstrapped replica keeps following live writes.
	if err := c.Set("after", "live"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	if v, ok, _ := rc.Get("after"); !ok || v != "live" {
		t.Fatal("live write did not reach re-bootstrapped replica")
	}
}

// TestLinkDropPartialResync: a transient connection loss (not a process
// kill) — the link reconnects by itself and resumes with a partial resync.
func TestLinkDropPartialResync(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	replica := openReplNode(t, t.TempDir(), primary.sock, nil)
	rc := dialNode(t, replica)

	if err := c.Set("before-drop", "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	partials0 := primary.srv.repl.partialSyncs.Load()

	// Sever the live link from the replica side.
	replica.srv.repl.mu.Lock()
	link := replica.srv.repl.link
	replica.srv.repl.mu.Unlock()
	link.mu.Lock()
	if link.conn != nil {
		link.conn.Close()
	}
	link.mu.Unlock()

	if err := c.Set("after-drop", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "link to reconnect and converge", func() bool {
		v, ok, _ := rc.Get("after-drop")
		return ok && v == "v"
	})
	if primary.srv.repl.partialSyncs.Load() <= partials0 {
		t.Fatal("reconnect did not take the partial-resync path")
	}
}

// TestOversizedArgvReplicates: a command the primary accepts, acknowledges
// and propagates must be accepted by its replica. With a limit block of its
// own (131,072 arguments against the server's 1,048,576) the replica used to
// refuse a 140,000-key DEL as a protocol error, drop the link, resync to the
// same offset and meet the same entry again, forever.
func TestOversizedArgvReplicates(t *testing.T) {
	backlog := func(c *Config) { c.ReplBacklogBytes = 32 << 20 }
	primary := openReplNode(t, t.TempDir(), "", backlog)
	replica := openReplNode(t, t.TempDir(), primary.sock, backlog)
	c, rc := dialNode(t, primary), dialNode(t, replica)

	del := [][]byte{[]byte("DEL")}
	for i := 0; i < 140_000; i++ {
		del = append(del, []byte("k"+strconv.Itoa(i)))
	}
	if err := c.SendBytes(del...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if rp, err := c.Recv(); err != nil || rp.Err() != nil {
		t.Fatalf("primary DEL with %d keys: %+v, %v", len(del)-1, rp, err)
	}
	if err := c.Set("marker", "arrived"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the marker SET to reach the replica", func() bool {
		v, ok, err := rc.Get("marker")
		return err == nil && ok && v == "arrived"
	})
	rp, err := rc.Do("INFO", "replication")
	if err != nil || !strings.Contains(string(rp.Bulk), "link_up:1\r\n") || !strings.Contains(string(rp.Bulk), "apply_errors:0\r\n") {
		t.Fatalf("replica INFO replication after the oversized entry: %v\n%s", err, rp.Bulk)
	}
}

// TestReplicaLimitsArePrimaryLimits: at the argument-count boundary the
// connection reader and the feed-entry reader give the same verdict.
func TestReplicaLimitsArePrimaryLimits(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{resp.MaxArgs, true}, {resp.MaxArgs + 1, false}} {
		wire := append([]byte(fmt.Sprintf("*%d\r\n", tc.n)), bytes.Repeat([]byte("$1\r\na\r\n"), tc.n)...)
		cmd, cerr := newRespReader(bytes.NewReader(wire)).ReadCommand()
		entry, _, eerr := repl.ReadEntry(resp.NewReader(bytes.NewReader(wire)))
		if (cerr == nil) != tc.ok || (eerr == nil) != tc.ok {
			t.Fatalf("%d args: ReadCommand err %v, ReadEntry err %v; want accepted=%v by both", tc.n, cerr, eerr, tc.ok)
		}
		if tc.ok && (len(cmd) != tc.n || len(entry) != tc.n) {
			t.Fatalf("%d args: ReadCommand decoded %d, ReadEntry %d", tc.n, len(cmd), len(entry))
		}
		var pe resp.Error
		if !tc.ok && (!errors.As(cerr, &pe) || !errors.Is(eerr, repl.ErrProto)) {
			t.Fatalf("%d args: ReadCommand err %T, ReadEntry err %v; want protocol errors", tc.n, cerr, eerr)
		}
	}
}
