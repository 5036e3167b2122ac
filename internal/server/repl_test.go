package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
	"repro/internal/resp"
)

// replNode is one file-backed, replication-enabled server in-process — the
// test-harness equivalent of a ralloc-serve process, including the replica
// bootstrap (image download / probe) that normally runs before the heap
// opens.
type replNode struct {
	dir      string
	heapPath string
	sock     string
	heap     *ralloc.Heap
	st       *kvstore.Store
	srv      *Server
	resync   chan struct{}
	stopped  bool
}

// openReplNode starts a node in dir (primary when replicaOf is empty). A
// replica bootstraps first: no local image downloads one; an existing image
// probes the primary and re-downloads only when its stamped offset is no
// longer covered. Reopening a dir whose heap was abandoned (killNode)
// replays the crash-recovery path, exactly like a SIGKILL'd ralloc-serve.
func openReplNode(t *testing.T, dir, replicaOf string, tweak func(*Config)) *replNode {
	t.Helper()
	heapPath := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "kv.sock")
	if replicaOf != "" {
		var id, off uint64
		if _, err := os.Stat(heapPath); err == nil {
			if id, off, err = pmem.ReadImageMeta(heapPath); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := repl.Sync(replicaOf, []string{heapPath}, id, off); err != nil {
			t.Fatalf("replica sync: %v", err)
		}
	}
	heap, dirty, err := ralloc.Open(heapPath, ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := heap.AsAllocator()
	var st *kvstore.Store
	root := heap.GetRoot(0, nil)
	switch {
	case root == 0:
		st, root = kvstore.Open(a, a.NewHandle(), 1024)
		heap.SetRoot(0, root)
	case dirty:
		heap.GetRoot(0, kvstore.Filter(a, root))
		if _, err := heap.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		st = kvstore.Attach(a, root)
	default:
		st = kvstore.Attach(a, root)
	}
	n := &replNode{dir: dir, heapPath: heapPath, sock: sock, heap: heap, st: st,
		resync: make(chan struct{}, 1)}
	cfg := Config{
		ReplBacklogBytes: 1 << 20,
		ReplicaOf:        replicaOf,
		OnFullResyncNeeded: func() {
			select {
			case n.resync <- struct{}{}:
			default:
			}
		},
	}
	cfg.ReplID, cfg.ReplOffset = heap.Region().ReplMeta()
	if tweak != nil {
		tweak(&cfg)
	}
	n.srv = NewSharded([]ShardBackend{RegionBackend(a, st, heap.Region(), heapPath, true)}, cfg)
	os.Remove(sock)
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go n.srv.Serve(l)
	t.Cleanup(func() {
		if !n.stopped {
			n.srv.Shutdown(2 * time.Second)
		}
	})
	return n
}

// killNode is SIGKILL in-process: hard-stop the server and abandon the heap
// without closing it, so the on-disk image stays whatever the last
// checkpoint wrote. The dir can then be reopened through the recovery path.
func killNode(n *replNode) {
	n.stopped = true
	n.srv.Abort()
}

// stopNode is a clean shutdown: drain, stamp the final feed position, save
// the image.
func stopNode(t *testing.T, n *replNode) {
	t.Helper()
	n.stopped = true
	n.srv.Shutdown(2 * time.Second)
	if id, off := n.srv.ReplMeta(); id != 0 {
		n.heap.Region().SetReplMeta(id, off)
	}
	if err := n.heap.Close(); err != nil {
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
// The samples are writeSamples (persistwrite_test.go).
func TestEveryWriteCommandPropagates(t *testing.T) {
	cmds := writeCommands(t)
	ts := startServer(t, Config{ReplBacklogBytes: 1 << 20}, 0)
	c := dial(t, ts)
	feed := ts.srv.repl.feed

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
	primary.stopped = true

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

// TestReplicaKillPartialResync: SIGKILL-equivalent on the replica, with the
// backlog still covering its checkpoint offset — the restarted replica
// resumes with a partial resync (no image download) and converges on
// everything written while it was down.
func TestReplicaKillPartialResync(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", nil)
	c := dialNode(t, primary)
	rdir := t.TempDir()
	replica := openReplNode(t, rdir, primary.sock, nil)

	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("pr-%03d", i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT = %d, %v", n, err)
	}
	killNode(replica)

	// Writes the dead replica misses — well inside the 1 MiB backlog.
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("pr-%03d", i), "v2"); err != nil {
			t.Fatal(err)
		}
	}

	fulls0 := primary.srv.repl.fullSyncs.Load()
	replica2 := openReplNode(t, rdir, primary.sock, nil)
	rc := dialNode(t, replica2)
	if n, err := c.Wait(1, 10*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT after restart = %d, %v", n, err)
	}
	for _, i := range []int{0, 25, 49} {
		v, ok, err := rc.Get(fmt.Sprintf("pr-%03d", i))
		if err != nil || !ok || v != "v2" {
			t.Fatalf("restarted replica pr-%03d = (%q,%v,%v), want v2", i, v, ok, err)
		}
	}
	if fulls := primary.srv.repl.fullSyncs.Load(); fulls != fulls0 {
		t.Fatalf("restart took a full resync (%d -> %d): partial coverage was lost", fulls0, fulls)
	}
	if primary.srv.repl.partialSyncs.Load() < 2 {
		t.Fatal("expected at least two partial resyncs (initial attach + restart)")
	}
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
