package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestE2EReplicationFailover drives the full replication lifecycle across
// real processes, a real SIGTERM and real SIGKILLs: a ralloc-serve primary and
// a -replicaof replica on unix sockets, under a feed that is INCRs as well as
// SETs — entries that cannot be applied twice without showing it. The replica
// is shut down cleanly and restarted: its heap carries the position the close
// stamped, and it resumes with a partial resync. Then it is SIGKILLed
// mid-feed and restarted: a killed heap holds entries past any position it
// could carry, so it carries none and resyncs in full — and every counter
// equals the primary's, none doubled. Then the primary is killed, the replica
// promoted with REPLICAOF NO ONE and written to, and the old primary
// restarted as a replica of the new one — killed, it too has no position and
// re-bootstraps, after which it serves every write it was dead for.
func TestE2EReplicationFailover(t *testing.T) {
	runE2EReplicationFailover(t, 1)
}

// TestE2EReplicationFailoverCluster4 is the same drill at -cluster-shards 4:
// bootstrap downloads four slot-partitioned images, the clean restart's
// partial resync replays a feed whose entries carry derived shard ids (all
// four heaps were stamped with one position), the old primary's rejoin
// recovers a four-shard dataset after SIGKILL, and WAIT/INFO span shards.
func TestE2EReplicationFailoverCluster4(t *testing.T) {
	runE2EReplicationFailover(t, 4)
}

func runE2EReplicationFailover(t *testing.T, clusterShards int) {
	if testing.Short() {
		t.Skip("skipping subprocess e2e in -short mode")
	}
	dir := t.TempDir()
	bin := serveBinary(t)

	type node struct {
		heap, sock string
	}
	a := node{filepath.Join(dir, "a.heap"), filepath.Join(dir, "a.sock")}
	b := node{filepath.Join(dir, "b.heap"), filepath.Join(dir, "b.sock")}

	serve := func(n node, extra ...string) *exec.Cmd {
		args := []string{"-heap", n.heap, "-unix", n.sock, "-heapmb", "64", "-buckets", "8192"}
		if clusterShards > 1 {
			args = append(args, "-cluster-shards", strconv.Itoa(clusterShards))
		}
		args = append(args, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting ralloc-serve: %v", err)
		}
		return cmd
	}
	dialRetry := func(n node) *Client {
		deadline := time.Now().Add(15 * time.Second)
		for {
			c, err := DialTimeout("unix", n.sock, time.Second)
			if err == nil {
				return c
			}
			if time.Now().After(deadline) {
				t.Fatalf("server on %s did not come up: %v", n.sock, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	writeBatch := func(c *Client, prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Send("SET", fmt.Sprintf("%s-%05d", prefix, i), prefix); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if rp, err := c.Recv(); err != nil || rp.Str != "OK" {
				t.Fatalf("batch %s SET reply = %+v, %v", prefix, rp, err)
			}
		}
	}
	checkBatch := func(c *Client, prefix string, n int, where string) {
		t.Helper()
		for _, i := range []int{0, n / 2, n - 1} {
			v, ok, err := c.Get(fmt.Sprintf("%s-%05d", prefix, i))
			if err != nil || !ok || v != prefix {
				t.Fatalf("%s: %s-%05d = (%q,%v,%v)", where, prefix, i, v, ok, err)
			}
		}
	}

	if clusterShards == 1 {
		// -boundmb and -replicaof are mutually exclusive (evictions are
		// not replicated): the binary must refuse the combination at startup.
		bad := exec.Command(bin, "-heap", filepath.Join(dir, "bad.heap"), "-unix",
			filepath.Join(dir, "bad.sock"), "-boundmb", "8", "-replicaof", a.sock)
		if out, err := bad.CombinedOutput(); err == nil {
			t.Fatalf("-boundmb with -replicaof was accepted:\n%s", out)
		}
	}

	// bump INCRs each of the drill's counters n times, pipelined; sums reads
	// them all. A counter applied twice anywhere shows in the comparison.
	const counters = 16
	bumpSend := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n*counters; i++ {
			if err := c.Send("INCR", fmt.Sprintf("ctr-%02d", i%counters)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	bumpRecv := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n*counters; i++ {
			if rp, err := c.Recv(); err != nil || rp.Err() != nil {
				t.Fatalf("INCR reply = %+v, %v", rp, err)
			}
		}
	}
	bump := func(c *Client, n int) {
		t.Helper()
		bumpSend(c, n)
		bumpRecv(c, n)
	}
	sums := func(c *Client) string {
		t.Helper()
		var b strings.Builder
		for i := 0; i < counters; i++ {
			v, _, err := c.Get(fmt.Sprintf("ctr-%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(v + " ")
		}
		return b.String()
	}
	syncs := func(c *Client, want string) {
		t.Helper()
		rp, err := c.Do("INFO", "replication")
		if err != nil || !strings.Contains(string(rp.Bulk), want) {
			t.Fatalf("INFO replication lacks %q (%v):\n%s", want, err, rp.Bulk)
		}
	}

	primary := serve(a)
	defer func() {
		if primary.Process != nil {
			primary.Process.Kill()
		}
	}()
	pc := dialRetry(a)
	writeBatch(pc, "batch-a", 2000)
	bump(pc, 25)

	replica := serve(b, "-replicaof", a.sock)
	defer func() {
		if replica.Process != nil {
			replica.Process.Kill()
		}
	}()
	rc := dialRetry(b)
	if n, err := pc.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT for replica attach = %d, %v", n, err)
	}
	checkBatch(rc, "batch-a", 2000, "replica after bootstrap")
	if rp, err := rc.Do("SET", "nope", "x"); err != nil || !strings.Contains(rp.Str, "READONLY") {
		t.Fatalf("replica SET = %+v, %v (want READONLY)", rp, err)
	}
	bump(pc, 25)

	// Clean restart: SIGTERM stamps the position the feed stopped at into
	// the replica's heaps; the primary keeps writing; the restarted replica
	// resumes from the stamp — batch B and the INCRs are well inside the
	// 1 MiB default backlog, so this is a partial resync, not a re-download,
	// and the entries it already held are not applied again.
	if n, err := pc.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT before the clean restart = %d, %v", n, err)
	}
	rc.Close()
	if err := replica.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, replica, 15*time.Second)
	writeBatch(pc, "batch-b", 1000)
	bump(pc, 25)
	replica = serve(b, "-replicaof", a.sock)
	rc = dialRetry(b)
	if n, err := pc.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT after the clean restart = %d, %v", n, err)
	}
	syncs(pc, "full_syncs:1") // the bootstrap's, still the only one
	checkBatch(rc, "batch-b", 1000, "cleanly restarted replica")
	if got, want := sums(rc), sums(pc); got != want {
		t.Fatalf("counters after the partial resync: replica %s, primary %s", got, want)
	}

	// Kill the replica mid-feed, INCRs in flight. Its heap holds every entry
	// it applied, which is more than any position stamped in it could say: it
	// restarts with none, downloads the primary's state afresh, and no INCR
	// is applied on top of itself.
	bumpSend(pc, 200)
	time.Sleep(5 * time.Millisecond)
	rc.Close()
	if err := replica.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	replica.Wait()
	bumpRecv(pc, 200)
	bump(pc, 25)

	replica2 := serve(b, "-replicaof", a.sock)
	defer func() {
		if replica2.Process != nil {
			replica2.Process.Kill()
		}
	}()
	rc2 := dialRetry(b)
	if n, err := pc.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT after replica restart = %d, %v", n, err)
	}
	if got, want := sums(rc2), sums(pc); got != want || !strings.HasPrefix(want, fmt.Sprint(25*4+200)+" ") {
		t.Fatalf("counters after the kill and full resync: replica %s, primary %s (want %d each)", got, want, 25*4+200)
	}
	syncs(pc, "full_syncs:2")
	checkBatch(rc2, "batch-a", 2000, "restarted replica")
	checkBatch(rc2, "batch-b", 1000, "restarted replica")

	// Failover: SIGKILL the primary, promote the replica, write through it.
	pc.Close()
	if err := primary.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	if err := rc2.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	checkBatch(rc2, "batch-a", 2000, "promoted replica")
	checkBatch(rc2, "batch-b", 1000, "promoted replica")
	writeBatch(rc2, "batch-c", 500)

	// Rejoin: the old primary restarts pointing at the new one. It was
	// killed, so its heap carries no position (and the promoted node runs a
	// fresh stream ID besides): it re-bootstraps from the new primary's
	// checkpoint — converging on batch C, which it was dead for.
	old := serve(a, "-replicaof", b.sock)
	defer func() {
		if old.Process != nil {
			old.Process.Kill()
		}
	}()
	oc := dialRetry(a)
	if n, err := rc2.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT for rejoined node = %d, %v", n, err)
	}
	checkBatch(oc, "batch-a", 2000, "rejoined old primary")
	checkBatch(oc, "batch-b", 1000, "rejoined old primary")
	checkBatch(oc, "batch-c", 500, "rejoined old primary")
	syncs(rc2, "full_syncs:1")
	if got, want := sums(oc), sums(rc2); got != want {
		t.Fatalf("counters on the rejoined node: %s, on the new primary %s", got, want)
	}

	// And the feed keeps flowing to the rejoined node.
	if err := rc2.Set("post-rejoin", "live"); err != nil {
		t.Fatal(err)
	}
	if n, err := rc2.Wait(1, 15*time.Second); err != nil || n < 1 {
		t.Fatalf("WAIT post-rejoin = %d, %v", n, err)
	}
	if v, ok, err := oc.Get("post-rejoin"); err != nil || !ok || v != "live" {
		t.Fatalf("post-rejoin write = (%q,%v,%v)", v, ok, err)
	}

	// Clean shutdown everywhere: the rejoined replica drains first, then
	// the primary.
	oc.Do("SHUTDOWN")
	waitExit(t, old, 15*time.Second)
	rc2.Do("SHUTDOWN")
	waitExit(t, replica2, 15*time.Second)
}
