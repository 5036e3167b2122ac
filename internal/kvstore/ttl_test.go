package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// fakeClock is a manually-stepped unix-ms clock for deterministic expiry
// tests.
type fakeClock struct{ ms int64 }

func (c *fakeClock) now() int64      { return c.ms }
func (c *fakeClock) advance(d int64) { c.ms += d }

func newTTLStore(t *testing.T) (*ralloc.Heap, *Store, uint64, *fakeClock) {
	t.Helper()
	h, s, root := newStore(t)
	clk := &fakeClock{ms: 1_000_000}
	s.SetClock(clk.now)
	return h, s, root, clk
}

func TestLazyExpiry(t *testing.T) {
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	if !s.SetBytesExpire(hd, []byte("k"), []byte("v"), clk.now()+100) {
		t.Fatal("SetBytesExpire failed")
	}
	if v, ok, _ := s.GetBytes([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("live TTL'd key = (%q,%v)", v, ok)
	}
	if got := s.PTTL([]byte("k")); got != 100 {
		t.Fatalf("PTTL = %d, want 100", got)
	}
	clk.advance(99)
	if _, ok, _ := s.GetBytes([]byte("k")); !ok {
		t.Fatal("key expired 1ms early")
	}
	// A sweep over a bucket whose record is not yet due leaves it marked.
	if n := s.ReclaimExpired(hd, 10); n != 0 {
		t.Fatalf("ReclaimExpired = %d before the deadline", n)
	}
	clk.advance(1) // deadline reached: at <= now expires
	if v, ok, _ := s.GetBytes([]byte("k")); ok {
		t.Fatalf("expired key still served: %q", v)
	}
	if got := s.PTTL([]byte("k")); got != TTLMissing {
		t.Fatalf("PTTL of expired key = %d, want %d", got, TTLMissing)
	}
	// Lazy: the record still occupies the map until reclaimed.
	if s.Len() != 1 {
		t.Fatalf("Len = %d before reclaim", s.Len())
	}
	st := s.Stats()
	if st.Expired == 0 {
		t.Fatal("lazy expiry not counted")
	}
	if n := s.ReclaimExpired(hd, 10); n != 1 {
		t.Fatalf("ReclaimExpired = %d, want 1", n)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after reclaim", s.Len())
	}
	if s.Stats().TTLd != 0 {
		t.Fatal("stamp count leaked after reclaim")
	}
}

func TestExpirePersistSemantics(t *testing.T) {
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	s.SetBytes(hd, []byte("k"), []byte("v"))
	if got := s.PTTL([]byte("k")); got != TTLNone {
		t.Fatalf("PTTL of immortal key = %d, want %d", got, TTLNone)
	}
	if s.Expire([]byte("missing"), clk.now()+50) {
		t.Fatal("Expire on missing key succeeded")
	}
	if !s.Expire([]byte("k"), clk.now()+50) {
		t.Fatal("Expire on live key failed")
	}
	if got := s.PTTL([]byte("k")); got != 50 {
		t.Fatalf("PTTL = %d, want 50", got)
	}
	// PERSIST removes the deadline and reports it did.
	if !s.Persist([]byte("k")) {
		t.Fatal("Persist with a TTL returned false")
	}
	if s.Persist([]byte("k")) {
		t.Fatal("Persist without a TTL returned true")
	}
	clk.advance(1000)
	if _, ok, _ := s.GetBytes([]byte("k")); !ok {
		t.Fatal("persisted key expired anyway")
	}

	// Redis SET clears TTLs.
	s.Expire([]byte("k"), clk.now()+50)
	s.SetBytes(hd, []byte("k"), []byte("v2"))
	if got := s.PTTL([]byte("k")); got != TTLNone {
		t.Fatalf("PTTL after plain SET = %d, want %d", got, TTLNone)
	}
	if s.Stats().TTLd != 0 {
		t.Fatal("stamp counted after a TTL-clearing SET")
	}
}

func TestNoResurrection(t *testing.T) {
	// Once a key is observably expired, nothing short of a fresh SET may
	// bring it back: EXPIRE and PERSIST on it must fail as "missing".
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	s.SetBytesExpire(hd, []byte("k"), []byte("v"), clk.now()+10)
	clk.advance(10)
	if s.Expire([]byte("k"), clk.now()+1000) {
		t.Fatal("EXPIRE resurrected an expired key")
	}
	if s.Persist([]byte("k")) {
		t.Fatal("PERSIST resurrected an expired key")
	}
	if _, ok, _ := s.GetBytes([]byte("k")); ok {
		t.Fatal("expired key visible")
	}
	// A fresh SET legitimately revives the name with a new record.
	s.SetBytes(hd, []byte("k"), []byte("new"))
	if v, ok, _ := s.GetBytes([]byte("k")); !ok || string(v) != "new" {
		t.Fatalf("re-SET key = (%q,%v)", v, ok)
	}
	// And reclaim must not sweep the fresh record using the stale deadline.
	if n := s.ReclaimExpired(hd, 10); n != 0 {
		t.Fatalf("ReclaimExpired swept %d fresh records", n)
	}
	if _, ok, _ := s.GetBytes([]byte("k")); !ok {
		t.Fatal("fresh record swept by stale reclaim")
	}
}

func TestTTLSurvivesCrashRecovery(t *testing.T) {
	// The deadline lives in the record's own allocation: after crash + GC
	// recovery + attach, live keys keep their remaining TTL and keys whose
	// deadline passed during the outage are expired — never resurrected.
	h, s, root, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	for i := 0; i < 200; i++ {
		key, val := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
		switch i % 3 {
		case 0: // immortal
			s.SetBytes(hd, []byte(key), []byte(val))
		case 1: // long TTL: must survive the outage
			s.SetBytesExpire(hd, []byte(key), []byte(val), clk.now()+1_000_000)
		case 2: // short TTL: passes while "down"
			s.SetBytesExpire(hd, []byte(key), []byte(val), clk.now()+500)
		}
	}
	h.SetRoot(0, root)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, Filter(a, root))
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	s2 := Attach(a, root)
	clk.advance(1000) // outage outlives the short TTLs
	s2.SetClock(clk.now)
	// 67 long-TTL + 66 short-TTL records carry deadlines (i%3==1 hits 67
	// values in 0..199, i%3==2 hits 66).
	if got := int(s2.Stats().TTLd); got != 133 {
		t.Fatalf("recounted %d stamped records, want 133", got)
	}
	for i := 0; i < 200; i++ {
		key, val := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
		v, ok, _ := s2.GetBytes([]byte(key))
		switch i % 3 {
		case 0:
			if !ok || string(v) != val {
				t.Fatalf("immortal %s = (%q,%v)", key, v, ok)
			}
			if got := s2.PTTL([]byte(key)); got != TTLNone {
				t.Fatalf("immortal %s PTTL = %d", key, got)
			}
		case 1:
			if !ok || string(v) != val {
				t.Fatalf("long-TTL %s = (%q,%v)", key, v, ok)
			}
			if got := s2.PTTL([]byte(key)); got <= 0 || got > 1_000_000 {
				t.Fatalf("long-TTL %s PTTL = %d", key, got)
			}
		case 2:
			if ok {
				t.Fatalf("short-TTL %s resurrected after recovery", key)
			}
		}
	}
	// The active side reclaims exactly the 66 short-TTL corpses.
	hd2 := a.NewHandle()
	total := 0
	for {
		n := s2.ReclaimExpired(hd2, 16)
		if n == 0 {
			break
		}
		total += n
	}
	if total != 66 {
		t.Fatalf("reclaimed %d records, want 66", total)
	}
	if s2.Len() != 134 {
		t.Fatalf("Len after reclaim = %d, want 134", s2.Len())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachBoundedSkipsExpiredRecords(t *testing.T) {
	// Stamp-expired records are dead to every reader, but they hold heap
	// until reclaimed: AttachBounded charges them, as a running store does,
	// and counts their stamps so the cycle reclaims them. Reclaiming them
	// afterwards must leave exactly the live records charged.
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 32 << 20, GrowthChunk: 1 << 20,
		Pmem: pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	clk := &fakeClock{ms: 1_000_000}
	budget := 100 * footprint(4, 3)
	s, root := OpenBounded(a, hd, 256, budget)
	s.SetClock(clk.now)
	for i := 0; i < 50; i++ {
		s.SetBytesExpire(hd, []byte(fmt.Sprintf("k%03d", i)), []byte("val"), clk.now()+10)
	}
	for i := 0; i < 20; i++ {
		s.SetBytes(hd, []byte(fmt.Sprintf("live%03d", i)), []byte("val"))
	}
	liveBytes := 20 * footprint(7, 3)
	h.SetRoot(0, root)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, Filter(a, root))
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	clk.advance(100)
	s2 := AttachBounded(a, root, budget)
	s2.SetClock(clk.now)
	if got, want := s2.Stats().Bytes, liveBytes+50*footprint(4, 3); got != want {
		t.Fatalf("charged %d bytes, want %d (dead records hold heap until reclaimed)", got, want)
	}
	if got := s2.Stats().TTLd; got != 50 {
		t.Fatalf("%d stamped records counted, want 50 (dead records still need reclaiming)", got)
	}
	hd2 := a.NewHandle()
	for s2.ReclaimExpired(hd2, 16) > 0 {
	}
	if s2.Len() != 20 {
		t.Fatalf("Len after reclaim = %d, want 20", s2.Len())
	}
	if got := s2.Stats().Bytes; got != liveBytes {
		t.Fatalf("accounting drifted to %d bytes after reclaiming the dead records, want %d", got, liveBytes)
	}
}

// TestLazyExpiryNoExtraAlloc is the satellite claim behind
// BenchmarkGetNoTTL/BenchmarkGetWithTTL: the deadline check on the read hot
// path must not add a single allocation over the immortal-key path.
func TestLazyExpiryNoExtraAlloc(t *testing.T) {
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	s.SetBytes(hd, []byte("plain"), []byte("value"))
	s.SetBytesExpire(hd, []byte("ttld"), []byte("value"), clk.now()+1_000_000)
	plainKey, ttldKey := []byte("plain"), []byte("ttld")
	base := testing.AllocsPerRun(200, func() { s.GetBytes(plainKey) })
	ttld := testing.AllocsPerRun(200, func() { s.GetBytes(ttldKey) })
	if ttld > base {
		t.Fatalf("TTL check added allocations to the read path: %.1f vs %.1f allocs/op", ttld, base)
	}
}
