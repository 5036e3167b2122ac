package server

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// stepClock is a manually-advanced unix-ms clock shared between the test
// and the store, so command-level TTL semantics are deterministic.
type stepClock struct{ ms atomic.Int64 }

func newStepClock() *stepClock {
	c := &stepClock{}
	c.ms.Store(1_000_000)
	return c
}
func (c *stepClock) now() int64      { return c.ms.Load() }
func (c *stepClock) advance(d int64) { c.ms.Add(d) }

func TestTTLCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	clk := newStepClock()
	ts.st.SetClock(clk.now)
	c := dial(t, ts)

	// SETEX/PSETEX write expiring records; TTL/PTTL report remaining life.
	if err := c.SetEx("sx", 10, "v1"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.TTL("sx"); err != nil || n != 10 {
		t.Fatalf("TTL sx = %d, %v", n, err)
	}
	if n, err := c.PTTL("sx"); err != nil || n != 10_000 {
		t.Fatalf("PTTL sx = %d, %v", n, err)
	}
	if err := c.PSetEx("px", 1500, "v2"); err != nil {
		t.Fatal(err)
	}
	// TTL rounds up, like Redis: 1500ms reports as 2s.
	if n, err := c.TTL("px"); err != nil || n != 2 {
		t.Fatalf("TTL px = %d, %v", n, err)
	}
	// Non-positive SETEX TTLs are rejected.
	if rp, err := c.Do("SETEX", "bad", "0", "v"); err != nil || rp.Kind != '-' {
		t.Fatalf("SETEX 0 = %+v, %v", rp, err)
	}

	// Missing and immortal sentinels.
	if n, err := c.TTL("nope"); err != nil || n != -2 {
		t.Fatalf("TTL missing = %d, %v", n, err)
	}
	if err := c.Set("imm", "v"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.TTL("imm"); err != nil || n != -1 {
		t.Fatalf("TTL immortal = %d, %v", n, err)
	}

	// EXPIRE/PEXPIRE on live and missing keys; PERSIST clears.
	if ok, err := c.Expire("imm", 60); err != nil || !ok {
		t.Fatalf("EXPIRE imm = %v, %v", ok, err)
	}
	if ok, err := c.Expire("nope", 60); err != nil || ok {
		t.Fatalf("EXPIRE missing = %v, %v", ok, err)
	}
	if ok, err := c.Persist("imm"); err != nil || !ok {
		t.Fatalf("PERSIST imm = %v, %v", ok, err)
	}
	if ok, err := c.Persist("imm"); err != nil || ok {
		t.Fatalf("PERSIST without TTL = %v, %v", ok, err)
	}

	// Expiry is observable exactly at the deadline, and a plain SET clears
	// a pending TTL (Redis semantics).
	if ok, err := c.PExpire("px", 100); err != nil || !ok {
		t.Fatal(ok, err)
	}
	clk.advance(100)
	if _, ok, err := c.Get("px"); err != nil || ok {
		t.Fatalf("expired px still served (ok=%v, %v)", ok, err)
	}
	if n, err := c.TTL("px"); err != nil || n != -2 {
		t.Fatalf("TTL expired = %d, %v", n, err)
	}
	if ok, err := c.Expire("px", 60); err != nil || ok {
		t.Fatalf("EXPIRE resurrected an expired key over the wire: %v, %v", ok, err)
	}
	if err := c.Set("sx", "fresh"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.TTL("sx"); err != nil || n != -1 {
		t.Fatalf("TTL after clearing SET = %d, %v", n, err)
	}

	// SETNX respects lazy expiry: an expired key counts as absent.
	if ok, err := c.SetNX("px", "nxv"); err != nil || !ok {
		t.Fatalf("SETNX on expired key = %v, %v", ok, err)
	}
	if v, ok, _ := c.Get("px"); !ok || v != "nxv" {
		t.Fatalf("px after SETNX = (%q,%v)", v, ok)
	}
	if ok, err := c.SetNX("px", "other"); err != nil || ok {
		t.Fatalf("SETNX on live key = %v, %v", ok, err)
	}

	// APPEND preserves the TTL; GETSET clears it.
	if err := c.PSetEx("ap", 5_000, "abc"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Append("ap", "def"); err != nil || n != 6 {
		t.Fatalf("APPEND = %d, %v", n, err)
	}
	if v, ok, _ := c.Get("ap"); !ok || v != "abcdef" {
		t.Fatalf("ap = (%q,%v)", v, ok)
	}
	if n, err := c.PTTL("ap"); err != nil || n <= 0 || n > 5_000 {
		t.Fatalf("APPEND dropped the TTL: PTTL = %d, %v", n, err)
	}
	if old, ok, err := c.GetSet("ap", "reset"); err != nil || !ok || old != "abcdef" {
		t.Fatalf("GETSET = (%q,%v,%v)", old, ok, err)
	}
	if n, err := c.TTL("ap"); err != nil || n != -1 {
		t.Fatalf("GETSET kept the TTL: %d, %v", n, err)
	}
	if old, ok, err := c.GetSet("fresh-key", "v"); err != nil || ok || old != "" {
		t.Fatalf("GETSET on missing key = (%q,%v,%v)", old, ok, err)
	}
	// APPEND on a missing key creates it immortal.
	if n, err := c.Append("newap", "xyz"); err != nil || n != 3 {
		t.Fatalf("APPEND missing = %d, %v", n, err)
	}
	if n, err := c.TTL("newap"); err != nil || n != -1 {
		t.Fatalf("TTL of appended key = %d, %v", n, err)
	}

	// DEL of an expired-but-unreclaimed key reports 0 (Redis semantics —
	// reads already said the key was gone) while still freeing the corpse.
	if err := c.PSetEx("dx", 100, "v"); err != nil {
		t.Fatal(err)
	}
	before, _ := c.DBSize()
	clk.advance(100)
	if rp, err := c.Do("DEL", "dx"); err != nil || rp.Int != 0 {
		t.Fatalf("DEL expired = %+v, %v", rp, err)
	}
	if after, _ := c.DBSize(); after != before-1 {
		t.Fatalf("DEL expired left the corpse: DBSIZE %d -> %d", before, after)
	}

	// INCR preserves the TTL (the SETEX+INCR rate-limiter pattern), and the
	// counter dies with its deadline.
	if err := c.PSetEx("ctr", 5_000, "41"); err != nil {
		t.Fatal(err)
	}
	if rp, err := c.Do("INCR", "ctr"); err != nil || rp.Int != 42 {
		t.Fatalf("INCR = %+v, %v", rp, err)
	}
	if n, err := c.PTTL("ctr"); err != nil || n <= 0 || n > 5_000 {
		t.Fatalf("INCR dropped the TTL: PTTL = %d, %v", n, err)
	}
	clk.advance(5_000)
	if _, ok, _ := c.Get("ctr"); ok {
		t.Fatal("expired counter still served")
	}
	// INCR on the expired counter restarts from zero, immortal again only
	// because the old record is dead (fresh record, no deadline carried).
	if rp, err := c.Do("INCR", "ctr"); err != nil || rp.Int != 1 {
		t.Fatalf("INCR after expiry = %+v, %v", rp, err)
	}
	if n, err := c.TTL("ctr"); err != nil || n != -1 {
		t.Fatalf("TTL of reborn counter = %d, %v", n, err)
	}
}

func TestActiveExpiryCycleReclaims(t *testing.T) {
	// The active cycle must delete expired records without any reads
	// touching them — DBSIZE (which counts unreclaimed corpses) drains on
	// its own.
	ts := startServer(t, Config{
		ActiveExpiryInterval: 2 * time.Millisecond,
		ActiveExpirySample:   64,
	}, 0)
	c := dial(t, ts)
	for i := 0; i < 200; i++ {
		if err := c.PSetEx(fmt.Sprintf("tmp-%03d", i), 30, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("keeper", "v"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := c.DBSize()
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active expiry cycle left DBSIZE at %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok, err := c.Get("keeper"); err != nil || !ok || v != "v" {
		t.Fatalf("keeper = (%q,%v,%v)", v, ok, err)
	}
	st := ts.st.Stats()
	if st.Reclaimed != 200 {
		t.Fatalf("reclaimed = %d, want 200", st.Reclaimed)
	}
}

// TestExpiryCycleLooksAtABoundedShareOfTheMap: one server expiry round looks
// at no more than 20 × ActiveExpirySample buckets marked as holding a stamp,
// however many are marked. With 200k stamped keys that are not yet due in
// 262,144 buckets, a round that laps would hold the shard's barrier read side
// — and a SAVE fence behind it — for every marked bucket. An unbounded round,
// ReclaimExpired's, still laps.
func TestExpiryCycleLooksAtABoundedShareOfTheMap(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 64 << 20, Pmem: pmem.Config{Mode: pmem.ModeFast}})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	st, root := kvstore.Open(a, hd, 1<<18)
	h.SetRoot(0, root)
	at := time.Now().Add(time.Hour).UnixMilli()
	for i := 0; i < 200_000; i++ {
		if !st.SetBytesExpire(hd, fmt.Appendf(nil, "k%d", i), []byte("v"), at) {
			t.Fatal("out of memory")
		}
	}
	srv := New(a, st, Config{})
	const sample = 20
	for round := 0; round < 3; round++ {
		if n := srv.reclaimUnderBarrier(srv.shards[0], hd, sample); n != 20*sample {
			t.Fatalf("round %d looked at %d marked buckets, want the budget, %d", round, n, 20*sample)
		}
	}
	if _, n := st.ExpiredCandidates(sample, math.MaxInt); n < 100_000 {
		t.Fatalf("an unbounded round looked at %d marked buckets: it stopped before a lap", n)
	}
}

// TestTTLStressRaceRestart is the -race satellite: concurrent SET / GET /
// PSETEX / PEXPIRE / DEL traffic against a live active-expiry cycle, a SAVE
// checkpoint in the middle, then an in-process kill -9 (Abort + simulated
// power loss) and an AttachBounded restart. Invariants: the data race
// detector stays quiet, every acknowledged immortal SET survives, and every
// key whose TTL elapsed before the crash stays dead after recovery.
func TestTTLStressRaceRestart(t *testing.T) {
	const (
		writers = 4
		bound   = 48 << 20
	)
	cfg := ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	}
	h, _, err := ralloc.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	st, root := kvstore.OpenBounded(a, a.NewHandle(), 4096, bound)
	h.SetRoot(0, root)
	srv := NewSharded(persistOnSave(a, st, h), Config{
		ActiveExpiryInterval: time.Millisecond,
		ActiveExpirySample:   64,
	})
	sock := filepath.Join(t.TempDir(), "ttlrace.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	stableAcked := make([]int, writers) // highest immortal index acked per writer
	volAcked := make([]int, writers)    // highest short-TTL index acked per writer
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stableAcked[g], volAcked[g] = -1, -1
			c, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("writer %d: %v", g, err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				// Immortal record: must survive the crash.
				if err := c.Set(fmt.Sprintf("st%d-%06d", g, i), fmt.Sprintf("sv%d-%06d", g, i)); err != nil {
					return
				}
				stableAcked[g] = i
				// Short-TTL record: dead well before the post-crash check.
				if err := c.PSetEx(fmt.Sprintf("vol%d-%06d", g, i), int64(1+i%20), "tmp"); err != nil {
					return
				}
				volAcked[g] = i
				// Churn: reads, TTL rewrites and deletes racing the cycle.
				c.Get(fmt.Sprintf("vol%d-%06d", g, i/2))
				if i%3 == 0 {
					c.PExpire(fmt.Sprintf("vol%d-%06d", g, i/2), int64(1+i%5))
				}
				if i%5 == 0 {
					c.Do("DEL", fmt.Sprintf("vol%d-%06d", (g+1)%writers, i/3))
				}
			}
		}(g)
	}

	// Mid-run checkpoint through the quiesce barrier, with the expiry cycle
	// live on the other side of it.
	time.Sleep(150 * time.Millisecond)
	if err := srv.Save(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	srv.Abort()
	wg.Wait()
	for g := range stableAcked {
		if stableAcked[g] < 10 {
			t.Fatalf("writer %d acked only %d sets; traffic too thin", g, stableAcked[g])
		}
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover, AttachBounded, serve again with the cycle running.
	h2, dirty, err := ralloc.Attach(h.Region(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed heap attached clean")
	}
	a2 := h2.AsAllocator()
	h2.GetRoot(0, kvstore.Filter(a2, root))
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.AttachBounded(a2, root, bound)
	if !st2.Bounded() {
		t.Fatal("restart lost the bound")
	}
	srv2 := New(a2, st2, Config{
		ActiveExpiryInterval: time.Millisecond,
		ActiveExpirySample:   64,
	})
	sock2 := filepath.Join(t.TempDir(), "ttlrace2.sock")
	l2, err := net.Listen("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer srv2.Shutdown(time.Second)

	c, err := Dial("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Every acknowledged immortal SET survived.
	for g := 0; g < writers; g++ {
		for i := 0; i <= stableAcked[g]; i++ {
			v, ok, err := c.Get(fmt.Sprintf("st%d-%06d", g, i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != fmt.Sprintf("sv%d-%06d", g, i) {
				t.Fatalf("acked immortal SET st%d-%06d lost: (%q,%v)", g, i, v, ok)
			}
		}
	}
	// Every short-TTL record is long past its ≤20ms deadline (wall time):
	// none may be resurrected, whether or not its corpse was reclaimed.
	for g := 0; g < writers; g++ {
		for i := 0; i <= volAcked[g]; i++ {
			key := fmt.Sprintf("vol%d-%06d", g, i)
			if v, ok, _ := c.Get(key); ok {
				t.Fatalf("expired key %s resurrected as %q after restart", key, v)
			}
			if n, err := c.PTTL(key); err != nil || n != -2 {
				t.Fatalf("PTTL %s = %d, %v", key, n, err)
			}
		}
	}
	if err := c.Set("post", "alive"); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
