package server

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
	"repro/internal/resp"
)

// replInfo returns the INFO replication section as key → value.
func replInfo(t *testing.T, c *Client) map[string]string {
	t.Helper()
	rp, err := c.Do("INFO", "replication")
	if err != nil || rp.Err() != nil {
		t.Fatalf("INFO replication: %v %v", err, rp.Err())
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(rp.Bulk), "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			out[k] = v
		}
	}
	return out
}

// TestFirstPSyncUnderLoadLosesNothing: a fresh 2-shard primary counts its
// feed while writers INCR and SET over many keys, and a replica bootstraps in
// the middle of it, so the feed switches to retaining under load. Once the
// writers stop and WAIT 1 returns, every key must read the same on both
// ends, no entry may have failed to apply, and the primary's offset and
// entry count must be exactly the encoded lengths and the number of the
// writes it acknowledged: a write counted after the switch read the count,
// or retained as well as counted, would show there. The switch happens while
// a write is held in flight, and must wait for it.
func TestFirstPSyncUnderLoadLosesNothing(t *testing.T) {
	ccfg := cluster.Config{
		Shards:  2,
		Ralloc:  ralloc.Config{SBRegion: 16 << 20, Shards: 2, Pmem: pmem.Config{Mode: pmem.ModeFast}},
		Buckets: 1024,
	}
	clus, err := cluster.Open(filepath.Join(t.TempDir(), "p.heap"), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	psrv, psock := serveCluster(t, clus, Config{ReplBacklogBytes: 4 << 20})
	if !psrv.repl.counting {
		t.Fatal("a fresh file-backed primary must start counting")
	}

	const writers, keys, batch = 4, 512, 32
	type tally struct {
		bytes, entries uint64
		err            error
	}
	tallies := make([]tally, writers)
	var stop atomic.Bool
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for w := range tallies {
		c, err := Dial("unix", psock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := &tallies[w]
			for i := 0; !stop.Load(); {
				for j := 0; j < batch; j, i = j+1, i+1 {
					k := (i*writers + w) % keys
					args := [][]byte{[]byte("INCR"), fmt.Appendf(nil, "n:%d", k)}
					if i%2 == 1 {
						args = [][]byte{[]byte("SET"), fmt.Appendf(nil, "s:%d", k), fmt.Appendf(nil, "w%d-%d", w, i)}
					}
					if tl.err = c.SendBytes(args...); tl.err != nil {
						return
					}
					tl.bytes += uint64(resp.CommandLen(args))
					tl.entries++
				}
				if tl.err = c.Flush(); tl.err != nil {
					return
				}
				for j := 0; j < batch; j++ {
					rp, err := c.Recv()
					if err == nil {
						err = rp.Err()
					}
					if err != nil {
						tl.err = err
						return
					}
				}
				acked.Add(batch)
			}
		}()
	}
	waitAcked := func(n uint64) {
		t.Helper()
		waitFor(t, 20*time.Second, fmt.Sprintf("%d acknowledged writes", n), func() bool { return acked.Load() >= n })
	}

	waitAcked(4000)
	// A write holds its shard's barrier read side from before it runs until
	// after it has counted. Hold shard 1's as a write in flight would: the
	// cut is taken in shard order, so once shard 0's write side is held the
	// bootstrap's full sync is waiting on shard 1 — and its switch, if done
	// under the cut, has not happened yet, so the feed still covers nothing.
	rbase := filepath.Join(t.TempDir(), "r.heap")
	exec0, exec1 := &psrv.shards[0].locks.Exec, &psrv.shards[1].locks.Exec
	exec1.RLock()
	boot := make(chan error, 1)
	go func() { boot <- cluster.BootstrapReplica(io.Discard, rbase, 2, psock) }()
	waitFor(t, 20*time.Second, "the full sync's cut to reach shard 1", func() bool {
		if exec0.TryRLock() {
			exec0.RUnlock()
			return false
		}
		return true
	})
	_, switched := psrv.repl.feed.CursorAt(psrv.repl.feed.Offset())
	exec1.RUnlock()
	if switched {
		t.Fatal("the feed switched to retaining while a write was in flight")
	}
	if err := <-boot; err != nil {
		t.Fatal(err)
	}
	rclus, err := cluster.Open(rbase, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := Config{ReplBacklogBytes: 4 << 20, ReplicaOf: psock}
	rcfg.ReplID, rcfg.ReplOffset = rclus.Shards[0].Heap.Region().ReplMeta()
	rsrv, rsock := serveCluster(t, rclus, rcfg)
	waitAcked(acked.Load() + 4000)
	stop.Store(true)
	wg.Wait()

	var bytes, entries uint64
	for _, tl := range tallies {
		if tl.err != nil {
			t.Fatalf("writer: %v", tl.err)
		}
		bytes += tl.bytes
		entries += tl.entries
	}
	pc, rc := dialAddr(t, psock), dialAddr(t, rsock)
	if n, err := pc.Wait(1, 10*time.Second); err != nil || n != 1 {
		t.Fatalf("WAIT 1 = %d, %v", n, err)
	}
	for k := 0; k < keys; k++ {
		for _, key := range []string{fmt.Sprintf("n:%d", k), fmt.Sprintf("s:%d", k)} {
			pv, pok, perr := pc.Get(key)
			rv, rok, rerr := rc.Get(key)
			if perr != nil || rerr != nil || pv != rv || pok != rok {
				t.Fatalf("%s: primary (%q,%v,%v), replica (%q,%v,%v)", key, pv, pok, perr, rv, rok, rerr)
			}
		}
	}
	pi, ri := replInfo(t, pc), replInfo(t, rc)
	if ri["apply_errors"] != "0" {
		t.Fatalf("replica apply_errors:%s", ri["apply_errors"])
	}
	if got := psrv.repl.feed.Offset(); got != bytes || pi["repl_offset"] != fmt.Sprint(bytes) {
		t.Fatalf("primary offset %d (INFO %s), writes encode to %d bytes", got, pi["repl_offset"], bytes)
	}
	if got := psrv.repl.feed.Entries(); got != entries {
		t.Fatalf("primary repl_entries %d, %d writes acknowledged", got, entries)
	}
	if got := rsrv.repl.feed.Offset(); got != bytes {
		t.Fatalf("replica offset %d, primary %d", got, bytes)
	}
	if start := psrv.repl.feed.StartOffset(); start == 0 || pi["full_syncs"] != "1" {
		t.Fatalf("backlog start %d, full_syncs:%s: the switch did not land mid-stream", start, pi["full_syncs"])
	}
}

// dialAddr dials a unix socket for the length of the test.
func dialAddr(t *testing.T, sock string) *Client {
	t.Helper()
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRetainRules pins when a primary's feed retains. A fresh primary keeps
// no byte before its first full resync, and answers even a PSYNC for the very
// position it stands at with FULLRESYNC. A primary restarted cleanly names
// its position in its header and retains from it, so a replica that was
// caught up when both stopped resumes with CONTINUE, over writes made before
// it reconnects.
func TestRetainRules(t *testing.T) {
	dir, rdir := t.TempDir(), t.TempDir()
	p := openReplNode(t, dir, "", nil)
	c := dialNode(t, p)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("a%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	info := replInfo(t, c)
	if info["repl_backlog_bytes"] != "0" || info["repl_offset"] == "0" || info["repl_backlog_start"] != info["repl_offset"] {
		t.Fatalf("a fresh primary after writes: backlog_bytes:%s offset:%s backlog_start:%s (want 0, >0, = offset)",
			info["repl_backlog_bytes"], info["repl_offset"], info["repl_backlog_start"])
	}
	id, off := p.srv.ReplMeta()
	partial, _, _, err := repl.Sync(p.sock, []string{filepath.Join(t.TempDir(), "probe.heap")}, id, off)
	if err != nil || partial {
		t.Fatalf("first PSYNC %016x %d: partial=%v, %v (want FULLRESYNC)", id, off, partial, err)
	}

	r := openReplNode(t, rdir, p.sock, nil)
	if err := c.Set("b", "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(1, 5*time.Second); err != nil || n != 1 {
		t.Fatalf("WAIT 1 = %d, %v", n, err)
	}
	if info := replInfo(t, c); info["repl_backlog_bytes"] == "0" || info["full_syncs"] != "2" {
		t.Fatalf("after two full resyncs: backlog_bytes:%s full_syncs:%s", info["repl_backlog_bytes"], info["full_syncs"])
	}
	stopNode(t, r)
	c.Close() // or the drain waits out its deadline on an idle client
	stopNode(t, p)

	p2 := openReplNode(t, dir, "", nil)
	if p2.srv.repl.counting {
		t.Fatal("a primary restarted with a named position counts")
	}
	c2 := dialNode(t, p2)
	for i := 0; i < 5; i++ {
		if err := c2.Set(fmt.Sprintf("c%d", i), "after-restart"); err != nil {
			t.Fatal(err)
		}
	}
	r2 := openReplNode(t, rdir, p2.sock, nil)
	if n, err := c2.Wait(1, 5*time.Second); err != nil || n != 1 {
		t.Fatalf("WAIT 1 after both restarts = %d, %v", n, err)
	}
	// Both the bootstrap probe and the link's PSYNC are answered CONTINUE.
	if info := replInfo(t, c2); info["full_syncs"] != "0" || info["partial_syncs"] != "2" {
		t.Fatalf("restarted primary: full_syncs:%s partial_syncs:%s (want 0, 2)", info["full_syncs"], info["partial_syncs"])
	}
	rc := dialNode(t, r2)
	for i := 0; i < 5; i++ {
		if v, ok, err := rc.Get(fmt.Sprintf("c%d", i)); err != nil || !ok || v != "after-restart" {
			t.Fatalf("replica c%d = (%q,%v,%v)", i, v, ok, err)
		}
	}
}
