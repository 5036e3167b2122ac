package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Crash injection around expiry-metadata persist points, extending the
// ralloc/dstruct crashinject pattern: the pmem StoreHook panics after the
// k-th store inside a phase of EXPIRE / expired-SET / active-reclaim
// traffic, so the crash lands between the individual flushes of
// UpdateExpire (the in-place stamp write), SetExpire (node init → link
// swing) and the conditional Remove (unlink → free). After recovery the invariant
// under test is the PR's headline guarantee: no key acknowledged as expired
// is ever resurrected, and no live key is dropped.

type ttlCrash struct{ k int }

// ttlCrashAt builds a store, acknowledges a known population, then runs
// expiry-heavy traffic that crashes at the k-th persistent store. It returns
// the heap, the clock, and which keys were acknowledged expired / written
// before the crash hit.
func ttlCrashAt(t *testing.T, k int) (h *ralloc.Heap, clk *fakeClock, expireAcked map[string]bool, newAcked map[string]bool) {
	t.Helper()
	var countdown int
	armed := false
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    16 << 20,
		GrowthChunk: 1 << 20,
		Pmem: pmem.Config{
			Mode: pmem.ModeCrashSim,
			StoreHook: func() {
				if !armed {
					return
				}
				countdown--
				if countdown == 0 {
					panic(ttlCrash{k})
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	clk = &fakeClock{ms: 1_000_000}
	s, root := Open(a, hd, 512)
	s.SetClock(clk.now)
	h.SetRoot(0, root)

	// Quiet phase: a fully-acknowledged population. live-* are immortal,
	// keep-* carry a far-future deadline, dead-* a near one.
	for i := 0; i < 30; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("live-%02d", i)), []byte(fmt.Sprintf("lv-%02d", i))) {
			t.Fatal("OOM")
		}
		if !s.SetBytesExpire(hd, []byte(fmt.Sprintf("keep-%02d", i)),
			[]byte(fmt.Sprintf("kv-%02d", i)), clk.now()+1_000_000_000) {
			t.Fatal("OOM")
		}
		if !s.SetBytesExpire(hd, []byte(fmt.Sprintf("dead-%02d", i)),
			[]byte(fmt.Sprintf("dv-%02d", i)), clk.now()+1000) {
			t.Fatal("OOM")
		}
	}
	// The dead-* deadlines pass; observing the miss is the lazy-expiry
	// acknowledgment (reads store nothing, so the hook stays quiet).
	clk.advance(2000)
	expireAcked = map[string]bool{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("dead-%02d", i)
		if _, ok, _ := s.GetBytes([]byte(key)); ok {
			t.Fatalf("%s not expired before the armed phase", key)
		}
		expireAcked[key] = true
	}

	// Armed phase: EXPIRE half the keep-* keys into the past, write new-*
	// records with future TTLs, and run the active reclaim — the crash
	// lands somewhere inside one of these multi-store operations.
	newAcked = map[string]bool{}
	func() {
		defer func() {
			armed = false
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(ttlCrash); !ok {
				panic(r)
			}
		}()
		countdown = k
		armed = true
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("keep-%02d", i)
			if !s.Expire([]byte(key), clk.now()-1) {
				t.Errorf("Expire(%s) on live key failed", key)
				return
			}
			expireAcked[key] = true // fenced before Expire returned: durable
			nkey := fmt.Sprintf("new-%02d", i)
			if !s.SetBytesExpire(hd, []byte(nkey), []byte(fmt.Sprintf("nv-%02d", i)), clk.now()+1_000_000) {
				t.Errorf("SetBytesExpire(%s) failed", nkey)
				return
			}
			newAcked[nkey] = true
			s.ReclaimExpired(hd, 3)
		}
	}()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, clk, expireAcked, newAcked
}

func TestTTLCrashInjectionSweep(t *testing.T) {
	for _, mode := range restartModes {
		t.Run(mode.String(), func(t *testing.T) { ttlCrashSweep(t, mode) })
	}
}

func ttlCrashSweep(t *testing.T, mode restartMode) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 18, 23, 30, 39, 51, 66, 86, 112, 146, 190, 247} {
		h, clk, expireAcked, newAcked := ttlCrashAt(t, k)
		a := h.AsAllocator()
		s := mode.restart(t, h, 0)
		s.SetClock(clk.now)
		assertLenMatchesWalk(t, s, k) // corpses included: DBSIZE counts them

		// No acked-expired key may be resurrected: whether its record was
		// reclaimed, is still present with the past stamp, or an in-flight
		// unlink half-landed, the read path must report it gone.
		for key := range expireAcked {
			if v, ok, _ := s.GetBytes([]byte(key)); ok {
				t.Fatalf("k=%d: acked-expired key %s resurrected as %q", k, key, v)
			}
			if got := s.PTTL([]byte(key)); got != TTLMissing {
				t.Fatalf("k=%d: acked-expired key %s PTTL = %d", k, key, got)
			}
		}
		// No live key may be dropped: immortals, the far-future keep-* keys
		// that were never EXPIREd, and every acknowledged new-* record.
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("live-%02d", i)
			if v, ok, _ := s.GetBytes([]byte(key)); !ok || string(v) != fmt.Sprintf("lv-%02d", i) {
				t.Fatalf("k=%d: live key %s = (%q,%v)", k, key, v, ok)
			}
		}
		for i := 15; i < 30; i++ {
			key := fmt.Sprintf("keep-%02d", i)
			if v, ok, _ := s.GetBytes([]byte(key)); !ok || string(v) != fmt.Sprintf("kv-%02d", i) {
				t.Fatalf("k=%d: untouched TTL'd key %s = (%q,%v)", k, key, v, ok)
			}
			if got := s.PTTL([]byte(key)); got <= 0 {
				t.Fatalf("k=%d: untouched TTL'd key %s lost its deadline (PTTL %d)", k, key, got)
			}
		}
		for key := range newAcked {
			want := "nv-" + key[len(key)-2:]
			if v, ok, _ := s.GetBytes([]byte(key)); !ok || string(v) != want {
				t.Fatalf("k=%d: acked new record %s = (%q,%v), want %q", k, key, v, ok, want)
			}
		}

		// Draining the reclaim must stay consistent, and expired keys stay
		// dead afterwards too.
		hd := a.NewHandle()
		for s.ReclaimExpired(hd, 16) > 0 {
		}
		for key := range expireAcked {
			if _, ok, _ := s.GetBytes([]byte(key)); ok {
				t.Fatalf("k=%d: %s resurrected after reclaim drain", k, key)
			}
		}
		assertLenMatchesWalk(t, s, k)
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}
