package server

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/slot"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// shardedEnv is an in-process N-shard server on a unix socket, each shard a
// full heap + store on a crash-sim region, with online checkpoints to files
// when paths are set.
type shardedEnv struct {
	heaps []*ralloc.Heap
	paths []string // the images SAVE writes, "<heap path>.save"
	srv   *Server
	sock  string
}

// startSharded builds an N-shard server. filed gives each shard a heap path
// in a temp dir (RegionBackend), so SAVE writes its backup there end to end;
// the heaps themselves stay pathless, for a test to crash.
// snapHook, when non-nil, supplies a per-shard pmem snapshot hook (crash
// injection); it may return nil for shards that get none.
func startSharded(t *testing.T, n int, cfg Config, filed bool, snapHook func(shard int) func(pmem.SnapshotPhase)) *shardedEnv {
	t.Helper()
	return startShardedSized(t, n, 64<<20, cfg, filed, snapHook)
}

// startShardedSized is startSharded with sbRegion bytes of superblocks per
// shard.
func startShardedSized(t *testing.T, n int, sbRegion uint64, cfg Config, filed bool, snapHook func(shard int) func(pmem.SnapshotPhase)) *shardedEnv {
	t.Helper()
	e := &shardedEnv{}
	dir := t.TempDir()
	backends := make([]ShardBackend, n)
	for i := 0; i < n; i++ {
		pcfg := pmem.Config{Mode: pmem.ModeCrashSim}
		if snapHook != nil {
			pcfg.SnapshotHook = snapHook(i)
		}
		h, _, err := ralloc.Open("", ralloc.Config{
			SBRegion: sbRegion,
			Pmem:     pcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := h.AsAllocator()
		st, root := kvstore.Open(a, a.NewHandle(), 1024)
		h.SetRoot(0, root)
		e.heaps = append(e.heaps, h)
		path := ""
		if filed {
			path = filepath.Join(dir, fmt.Sprintf("shard%d.heap", i))
			e.paths = append(e.paths, path+".save")
		}
		backends[i] = RegionBackend(a, st, h.Region(), path, cfg.ReplBacklogBytes > 0)
	}
	e.srv = NewSharded(backends, cfg)
	e.sock = filepath.Join(dir, "cluster.sock")
	l, err := net.Listen("unix", e.sock)
	if err != nil {
		t.Fatal(err)
	}
	go e.srv.Serve(l)
	t.Cleanup(func() { e.srv.Shutdown(time.Second) })
	return e
}

func (e *shardedEnv) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial("unix", e.sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// keysOnDistinctShards returns one key per shard index (0 and 1) of an
// n-shard cluster, by probing the slot mapping.
func keysOnDistinctShards(t *testing.T, n int) (k0, k1 string) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		switch slot.ShardOf([]byte(k), n) {
		case 0:
			k0 = k
		case 1:
			k1 = k
		}
		if k0 != "" && k1 != "" {
			return k0, k1
		}
	}
	t.Fatal("could not find keys on two distinct shards")
	return
}

// TestScanCursorRoundTrip is the SCAN regression pin at both shard counts:
// every key set is returned exactly once by a cursor walk, regardless of
// COUNT, and the walk terminates with cursor 0. The multi-shard variant also
// pins the cursor encoding's resumability contract — the shard component
// never decreases across a walk, so a resumed cursor never revisits a shard
// it finished.
func TestScanCursorRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			e := startSharded(t, n, Config{}, false, nil)
			c := e.dial(t)

			const total = 500
			want := map[string]bool{}
			for i := 0; i < total; i++ {
				k := fmt.Sprintf("scan-key-%04d", i)
				want[k] = true
				if err := c.Set(k, "v"); err != nil {
					t.Fatal(err)
				}
			}

			for _, count := range []string{"1", "17", "1000"} {
				got := map[string]int{}
				cursor := "0"
				lastShard := -1
				for steps := 0; ; steps++ {
					if steps > 2*total+10 {
						t.Fatalf("COUNT %s: cursor walk did not terminate", count)
					}
					rp, err := c.Do("SCAN", cursor, "COUNT", count)
					if err != nil || rp.Kind != '*' || len(rp.Elems) != 2 {
						t.Fatalf("SCAN = %+v, %v", rp, err)
					}
					for _, el := range rp.Elems[1].Elems {
						got[string(el.Bulk)]++
					}
					cursor = string(rp.Elems[0].Bulk)
					if cursor == "0" {
						break
					}
					cur, err := strconv.ParseUint(cursor, 10, 64)
					if err != nil {
						t.Fatalf("non-numeric cursor %q", cursor)
					}
					shard, _, ok := slot.DecodeCursor(cur, n)
					if !ok {
						t.Fatalf("undecodable cursor %q", cursor)
					}
					if shard < lastShard {
						t.Fatalf("cursor shard went backwards: %d after %d (a resumed walk would revisit a finished shard)", shard, lastShard)
					}
					lastShard = shard
				}
				if len(got) != total {
					t.Fatalf("COUNT %s: walk returned %d distinct keys, want %d", count, len(got), total)
				}
				for k, times := range got {
					if !want[k] {
						t.Fatalf("COUNT %s: phantom key %q", count, k)
					}
					if times != 1 {
						t.Fatalf("COUNT %s: key %q returned %d times", count, k, times)
					}
				}
			}

			// Malformed cursors and COUNTs are refused, not misparsed.
			if rp, _ := c.Do("SCAN", "notanumber"); rp.Kind != '-' {
				t.Fatalf("SCAN notanumber = %+v", rp)
			}
			if rp, _ := c.Do("SCAN", "0", "COUNT", "0"); rp.Kind != '-' {
				t.Fatalf("SCAN COUNT 0 = %+v", rp)
			}
		})
	}
}

// TestClusterCrossSlot pins the multi-shard routing contract: multi-key
// commands and transactions are atomic within one shard and refused with
// -CROSSSLOT across shards; hash tags co-locate; keyless fan-out commands
// (DBSIZE, FLUSHALL) see the whole keyspace.
func TestClusterCrossSlot(t *testing.T) {
	const n = 4
	e := startSharded(t, n, Config{}, false, nil)
	c := e.dial(t)
	k0, k1 := keysOnDistinctShards(t, n)

	// Cross-shard MSET refused; nothing applied.
	rp, err := c.Do("MSET", k0, "a", k1, "b")
	if err != nil || rp.Kind != '-' || rp.Str[:9] != "CROSSSLOT" {
		t.Fatalf("cross-shard MSET = %+v, %v", rp, err)
	}
	if _, ok, _ := c.Get(k0); ok {
		t.Fatal("refused MSET applied a key")
	}

	// Hash tags force co-location: {tag}a and {tag}b share a slot.
	if rp, err := c.Do("MSET", "{tag}a", "1", "{tag}b", "2"); err != nil || rp.Str != "OK" {
		t.Fatalf("hash-tag MSET = %+v, %v", rp, err)
	}
	if rp, err := c.Do("MGET", "{tag}a", "{tag}b"); err != nil || len(rp.Elems) != 2 ||
		string(rp.Elems[0].Bulk) != "1" || string(rp.Elems[1].Bulk) != "2" {
		t.Fatalf("hash-tag MGET = %+v, %v", rp, err)
	}

	// A transaction touching two shards poisons at queue time and aborts.
	mustDo := func(args ...string) Reply {
		t.Helper()
		rp, err := c.Do(args...)
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}
	mustDo("MULTI")
	mustDo("SET", k0, "x")
	if rp := mustDo("SET", k1, "y"); rp.Kind != '-' || rp.Str[:9] != "CROSSSLOT" {
		t.Fatalf("cross-shard queue = %+v", rp)
	}
	if rp := mustDo("EXEC"); rp.Kind != '-' || rp.Str[:9] != "EXECABORT" {
		t.Fatalf("EXEC after cross-shard queue = %+v", rp)
	}
	if _, ok, _ := c.Get(k0); ok {
		t.Fatal("aborted transaction applied a write")
	}

	// FLUSHALL inside MULTI cannot be shard-confined at N>1.
	mustDo("MULTI")
	if rp := mustDo("FLUSHALL"); rp.Kind != '-' || rp.Str[:9] != "CROSSSLOT" {
		t.Fatalf("FLUSHALL in MULTI at N>1 = %+v", rp)
	}
	mustDo("DISCARD")

	// A same-shard transaction still commits atomically.
	mustDo("MULTI")
	mustDo("SET", "{tag}a", "10")
	mustDo("SET", "{tag}b", "20")
	if rp := mustDo("EXEC"); rp.Kind != '*' || len(rp.Elems) != 2 {
		t.Fatalf("same-shard EXEC = %+v", rp)
	}
	if v, _, _ := c.Get("{tag}a"); v != "10" {
		t.Fatal("same-shard transaction lost a write")
	}

	// Fan-out: DBSIZE sums shards; FLUSHALL clears them all.
	if err := c.Set(k0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(k1, "y"); err != nil {
		t.Fatal(err)
	}
	nKeys, err := c.DBSize()
	if err != nil || nKeys != 4 { // {tag}a, {tag}b, k0, k1
		t.Fatalf("DBSIZE = %d, %v", nKeys, err)
	}
	if rp := mustDo("FLUSHALL"); rp.Str != "OK" {
		t.Fatalf("FLUSHALL = %+v", rp)
	}
	if nKeys, _ := c.DBSize(); nKeys != 0 {
		t.Fatalf("DBSIZE after FLUSHALL = %d", nKeys)
	}
}

// TestClusterShardCrashMidOnlineSave is the per-shard crash-injection pin:
// the process dies (in-process kill -9 plus a simulated machine crash) while
// shard k is mid-online-SAVE. After recovery of every shard from its
// surviving pmem, no acknowledged write is lost on ANY shard — the dying
// shard's half-written temp image is invisible (atomic rename never ran),
// and its last published image still parses.
func TestClusterShardCrashMidOnlineSave(t *testing.T) {
	const n, crashShard = 4, 2
	type crashSentinel struct{}

	// Shard k's snapshot hook dies at the first phase boundary (mid-copy)
	// once armed; the other shards save unmolested.
	var armed atomic.Bool
	e := startSharded(t, n, Config{}, true, func(shard int) func(pmem.SnapshotPhase) {
		if shard != crashShard {
			return nil
		}
		return func(pmem.SnapshotPhase) {
			if armed.Load() {
				panic(crashSentinel{})
			}
		}
	})
	c := e.dial(t)

	// Baseline data on every shard, checkpointed so each shard has a
	// published image to fall back to.
	const total = 2000
	for i := 0; i < total; i++ {
		if err := c.Set(fmt.Sprintf("pre-%05d", i), fmt.Sprintf("v-%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.srv.Save(); err != nil {
		t.Fatal(err)
	}

	// More acknowledged writes after the checkpoint: these must survive the
	// crash via pmem recovery even though no image contains them.
	for i := 0; i < 500; i++ {
		if err := c.Set(fmt.Sprintf("post-%05d", i), "post"); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the hook, then SAVE. The panic unwinds out of Save (the armed
	// snapshot aborts via its defers); the test then crashes the whole
	// machine at that instant.
	armed.Store(true)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("SAVE with a mid-copy crash hook did not panic")
			} else if _, ok := r.(crashSentinel); !ok {
				panic(r)
			}
		}()
		e.srv.Save()
	}()
	armed.Store(false)
	e.srv.Abort()
	c.Close()

	// Machine crash: every unflushed line on every shard is lost.
	for _, h := range e.heaps {
		if err := h.Region().Crash(); err != nil {
			t.Fatal(err)
		}
	}

	// Shard k's on-disk image must still be the published one (the dying
	// save never renamed): it parses and carries data, not garbage.
	if _, _, err := pmem.ReadImageMeta(e.paths[crashShard]); err != nil {
		t.Fatalf("crash shard's image unreadable after mid-save death: %v", err)
	}

	// Parallel recovery of all shards, then serve again and verify every
	// acknowledged write on every shard.
	rcfg := ralloc.Config{SBRegion: 64 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	backends := make([]ShardBackend, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h2, dirty, err := ralloc.Attach(e.heaps[i].Region(), rcfg)
			if err != nil {
				errs[i] = err
				return
			}
			if !dirty {
				errs[i] = fmt.Errorf("shard %d attached clean after crash", i)
				return
			}
			a2 := h2.AsAllocator()
			root := h2.GetRoot(0, nil)
			h2.GetRoot(0, kvstore.Filter(a2, root))
			if _, err := h2.Recover(); err != nil {
				errs[i] = err
				return
			}
			backends[i] = ShardBackend{Alloc: a2, Store: kvstore.Attach(a2, root)}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d recovery: %v", i, err)
		}
	}

	srv2 := NewSharded(backends, Config{})
	sock2 := filepath.Join(t.TempDir(), "recovered.sock")
	l2, err := net.Listen("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer srv2.Shutdown(time.Second)
	c2, err := Dial("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	for i := 0; i < total; i++ {
		k := fmt.Sprintf("pre-%05d", i)
		if v, ok, err := c2.Get(k); err != nil || !ok || v != fmt.Sprintf("v-%05d", i) {
			t.Fatalf("acknowledged pre-checkpoint write lost: %s = (%q,%v,%v)", k, v, ok, err)
		}
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("post-%05d", i)
		if v, ok, err := c2.Get(k); err != nil || !ok || v != "post" {
			t.Fatalf("acknowledged post-checkpoint write lost: %s = (%q,%v,%v)", k, v, ok, err)
		}
	}
}

// TestClusterSavePanicReleasesEveryShard: a cut that panics inside a SAVE's
// fence must release every barrier that fence holds. Shard 1's snapshot dies
// at SnapFence; the panic is recovered from Save, and a SET on shard 0 must
// still answer. With replication both shards are one group, so shard 0's
// barrier was taken by the fence that panicked.
func TestClusterSavePanicReleasesEveryShard(t *testing.T) {
	type crashSentinel struct{}
	for _, backlog := range []int{0, 1 << 20} {
		t.Run(fmt.Sprintf("backlog=%d", backlog), func(t *testing.T) {
			var armed atomic.Bool
			e := startSharded(t, 2, Config{ReplBacklogBytes: backlog}, true, func(shard int) func(pmem.SnapshotPhase) {
				if shard != 1 {
					return nil
				}
				return func(p pmem.SnapshotPhase) {
					if p == pmem.SnapFence && armed.Load() {
						panic(crashSentinel{})
					}
				}
			})
			k0, _ := keysOnDistinctShards(t, 2)
			c := e.dial(t)
			armed.Store(true)
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("SAVE with a fence crash hook did not panic")
					} else if _, ok := r.(crashSentinel); !ok {
						panic(r)
					}
				}()
				e.srv.Save()
			}()
			armed.Store(false)
			done := make(chan error, 1)
			go func() { done <- c.Set(k0, "after") }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("SET on shard 0 did not answer within 3s of a panicked SAVE")
			}
		})
	}
}

// TestClusterMixedWorkloadRace is the 4-shard concurrency soak the race
// detector chews on: parallel writers spraying keys (with TTLs) across
// shards, a SAVE loop cutting all four shards as one group (replication is
// enabled, so every SAVE takes all four barriers under one fence), the
// active expiry cycle reclaiming per shard, and SCAN/DBSIZE readers fanning
// out — all at once. The assertions are light (no errors, a final consistent read);
// the point is the interleavings.
func TestClusterMixedWorkloadRace(t *testing.T) {
	const n = 4
	e := startSharded(t, n, Config{
		ActiveExpiryInterval: 2 * time.Millisecond,
		ActiveExpirySample:   50,
		ReplBacklogBytes:     1 << 20, // enables repl → SAVE cuts every shard as one group
	}, true, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fails atomic.Int32
	note := func(format string, args ...any) {
		if fails.Add(1) <= 3 {
			t.Errorf(format, args...)
		}
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := e.dial(t)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("mix-%d-%04d", g, i%256)
				if err := c.Set(k, "v"); err != nil {
					note("writer %d SET: %v", g, err)
					return
				}
				if i%7 == 0 {
					if rp, err := c.Do("PEXPIRE", k, "1"); err != nil || rp.Kind == '-' {
						note("writer %d PEXPIRE: %+v %v", g, rp, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.srv.Save(); err != nil {
				note("SAVE: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := e.dial(t)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cursor := "0"
			for {
				rp, err := c.Do("SCAN", cursor, "COUNT", "50")
				if err != nil || rp.Kind != '*' {
					note("SCAN: %+v %v", rp, err)
					return
				}
				cursor = string(rp.Elems[0].Bulk)
				if cursor == "0" {
					break
				}
			}
			if _, err := c.DBSize(); err != nil {
				note("DBSIZE: %v", err)
				return
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	c := e.dial(t)
	if err := c.Set("final", "ok"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("final"); err != nil || !ok || v != "ok" {
		t.Fatalf("final read = (%q,%v,%v)", v, ok, err)
	}
	for i, h := range e.heaps {
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("shard %d invariants after soak: %v", i, err)
		}
	}
}
