package kvstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/ycsb"
)

// footprint is a string record's charge: the size of its map node.
func footprint(key, value int) uint64 { return dstruct.RecordSize(uint64(key), uint64(value)) }

func newStore(t *testing.T) (*ralloc.Heap, *Store, uint64) {
	t.Helper()
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    64 << 20,
		GrowthChunk: 4 << 20,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	s, root := Open(a, a.NewHandle(), 4096)
	return h, s, root
}

func TestSetGetDelete(t *testing.T) {
	h, s, _ := newStore(t)
	_ = h
	a := h.AsAllocator()
	hd := a.NewHandle()
	if !s.SetBytes(hd, []byte("hello"), []byte("world")) {
		t.Fatal("Set failed")
	}
	v, ok, _ := s.GetBytes([]byte("hello"))
	if !ok || string(v) != "world" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	if _, ok, _ := s.GetBytes([]byte("nope")); ok {
		t.Fatal("missing key found")
	}
	if !s.Delete(hd, []byte("hello")) {
		t.Fatal("Delete failed")
	}
	if _, ok, _ := s.GetBytes([]byte("hello")); ok {
		t.Fatal("deleted key still present")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Sets != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestYCSBWorkloadDrives(t *testing.T) {
	h, s, _ := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	w := ycsb.WorkloadA(1000)
	gen := ycsb.NewGenerator(w, 9)
	var buf []byte
	for i := 0; i < w.Records; i++ {
		buf = gen.Value(buf)
		if !s.SetBytes(hd, []byte(ycsb.KeyAt(i)), buf) {
			t.Fatal("load OOM")
		}
	}
	if s.Len() != w.Records {
		t.Fatalf("Len = %d, want %d", s.Len(), w.Records)
	}
	for i := 0; i < 20000; i++ {
		op := gen.Next()
		switch op.Kind {
		case ycsb.Read:
			if _, ok, _ := s.GetBytes([]byte(op.Key)); !ok {
				t.Fatalf("loaded key %q missing", op.Key)
			}
		case ycsb.Update:
			buf = gen.Value(buf)
			if !s.SetBytes(hd, []byte(op.Key), buf) {
				t.Fatal("update OOM")
			}
		}
	}
	if s.Len() != w.Records {
		t.Fatalf("record count drifted: %d", s.Len())
	}
}

func TestConcurrentClients(t *testing.T) {
	h, s, _ := newStore(t)
	a := h.AsAllocator()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hd := a.NewHandle()
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%100)
				if !s.SetBytes(hd, []byte(key), []byte(fmt.Sprintf("v%d", i))) {
					t.Error("OOM")
					return
				}
				if _, ok, _ := s.GetBytes([]byte(key)); !ok {
					t.Errorf("own write to %q not visible", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CLOCK's contract: a key not referenced since the hand last passed its
// bucket is evicted before one that was.
func TestBoundedStoreEvictsByClock(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	budget := 40 * footprint(10, 100)
	s, _ := OpenBounded(a, hd, 64, budget)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := make([]byte, 100)
	// Which keys the map holds, read without referencing a bucket.
	present := func() map[string]bool {
		keys := map[string]bool{}
		s.Range(func(k, _ []byte) bool { keys[string(k)] = true; return true })
		return keys
	}
	// The 41st record goes over budget: the hand's first two laps take every
	// write's marks away, its third evicts.
	for i := 0; i <= 40; i++ {
		if !s.SetBytes(hd, key(i), val) {
			t.Fatal("OOM")
		}
	}
	before, lap, st := present(), s.hand.Load(), s.Stats()
	hot := map[string]bool{}
	for i := 0; i <= 40; i += 2 {
		if k := key(i); before[string(k)] {
			s.GetBytes(k)
			hot[string(k)] = true
		}
	}
	if !s.SetBytes(hd, []byte("big"), make([]byte, 4*footprint(10, 100))) {
		t.Fatal("OOM")
	}
	if s.hand.Load()-lap >= s.m.Buckets() {
		t.Fatal("the hand lapped: the contract no longer applies")
	}
	after, evicted := present(), uint64(0)
	for k := range before {
		if !after[k] && hot[k] {
			t.Fatalf("%s, referenced since the hand last passed, was evicted", k)
		} else if !after[k] {
			evicted++
		}
	}
	if got := s.Stats(); evicted == 0 || !after["big"] || got.Evictions-st.Evictions != evicted || got.Bytes > budget {
		t.Fatalf("%d unreferenced keys evicted, the write itself kept: %v; %d evictions, %d bytes of %d",
			evicted, after["big"], got.Evictions-st.Evictions, got.Bytes, budget)
	}
	// Under churn the budget holds and the newest key survives.
	for i := 41; i < 300; i++ {
		if !s.SetBytes(hd, key(i), val) {
			t.Fatal("OOM")
		}
	}
	if st := s.Stats(); st.Bytes > budget {
		t.Fatalf("footprint %d above budget %d", st.Bytes, budget)
	}
	if _, ok, _ := s.GetBytes(key(299)); !ok {
		t.Fatal("newest key evicted")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A write survives two passes of the hand. When every bucket was read since
// the hand last passed, the hand laps fast, taking the reads' marks; the keys
// written meanwhile must outlive the keys read before them, as they would
// under LRU.
func TestBoundedStoreKeepsWritesThroughAFastLap(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, _ := OpenBounded(a, hd, 64, 40*footprint(10, 100))
	val := make([]byte, 100)
	// The 41st record goes over budget: the hand's two idle laps take every
	// mark away and end the run.
	for i := 0; i <= 40; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("old-%06d", i)), val) {
			t.Fatal("OOM")
		}
	}
	var old [][]byte
	s.Range(func(k, _ []byte) bool { old = append(old, k); return true })
	for _, k := range old {
		s.GetBytes(k)
	}
	evictions := s.Stats().Evictions
	for i := 0; i < 20; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("new-%06d", i)), val) {
			t.Fatal("OOM")
		}
	}
	for i := 0; i < 20; i++ {
		if _, ok, _ := s.GetBytes([]byte(fmt.Sprintf("new-%06d", i))); !ok {
			t.Fatalf("new-%06d evicted while keys read before it stayed (%d evictions)", i, s.Stats().Evictions-evictions)
		}
	}
}

func TestBoundedStoreTouchProtectsHotKeys(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	budget := 50 * footprint(10, 100)
	s, _ := OpenBounded(a, hd, 256, budget)
	val := make([]byte, 100)
	if !s.SetBytes(hd, []byte("hot-key"), val) {
		t.Fatal("OOM")
	}
	for i := 0; i < 500; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("cold-%05d", i)), val) {
			t.Fatal("OOM")
		}
		s.GetBytes([]byte("hot-key")) // keep it recent
	}
	if _, ok, _ := s.GetBytes([]byte("hot-key")); !ok {
		t.Fatal("hot key evicted despite constant touching")
	}
}

func TestBoundedStoreEvictionFreesMemory(t *testing.T) {
	// The whole point of eviction for an allocator study: a bounded store
	// under endless churn must not grow the heap without bound.
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, _ := OpenBounded(a, hd, 256, 100*footprint(10, 100))
	val := make([]byte, 100)
	for i := 0; i < 500; i++ {
		s.SetBytes(hd, []byte(fmt.Sprintf("w-%06d", i)), val)
	}
	used := h.SBUsed()
	for i := 500; i < 5000; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("w-%06d", i)), val) {
			t.Fatal("OOM")
		}
	}
	if h.SBUsed() > used+h.SBUsed()/10 {
		t.Fatalf("bounded store grew the heap: %d -> %d", used, h.SBUsed())
	}
}

func TestEvictionConcurrentSetGet(t *testing.T) {
	// Eviction under concurrent Set/Get: the byte accounting and the
	// persistent map must stay consistent with each other while the hand
	// and the readers' reference bits race. Run with -race.
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	budget := 200 * footprint(10, 100)
	s, _ := OpenBounded(a, a.NewHandle(), 256, budget)
	val := make([]byte, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hd := a.NewHandle()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("w%d-%05d", w, i)
				if !s.SetBytes(hd, []byte(key), val) {
					t.Error("OOM")
					return
				}
				// Touch a mix of own-recent and foreign keys so reads
				// race with evictions of the same entries.
				s.GetBytes([]byte(key))
				s.GetBytes([]byte(fmt.Sprintf("w%d-%05d", (w+1)%8, i/2)))
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 80x budget of churn")
	}
	if st.Bytes > budget {
		t.Fatalf("footprint %d above budget %d after quiescence", st.Bytes, budget)
	}
	// The accounting and the map must agree: every tracked byte belongs to
	// a live record, and the record count matches a full walk.
	walked := 0
	var walkedBytes uint64
	s.Range(func(k, v []byte) bool {
		walked++
		walkedBytes += footprint(len(k), len(v))
		return true
	})
	if walked != s.Len() {
		t.Fatalf("walked %d records, Len() = %d", walked, s.Len())
	}
	if walkedBytes != st.Bytes {
		t.Fatalf("walked footprint %d, accounting %d", walkedBytes, st.Bytes)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachBoundedRebuildsBudget(t *testing.T) {
	// Attach silently drops the bound (see Attach's doc); AttachBounded
	// must rebuild the accounting by walking the map so eviction works
	// from the first post-restart Set.
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 32 << 20, GrowthChunk: 1 << 20,
		Pmem: pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	budget := 100 * footprint(10, 100)
	s, root := OpenBounded(a, hd, 256, budget)
	h.SetRoot(0, root)
	val := make([]byte, 100)
	for i := 0; i < 90; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("key-%05d", i)), val) {
			t.Fatal("OOM")
		}
	}
	wantBytes := s.Stats().Bytes

	// Crash and recover, as a restarting server would.
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, Filter(a, root))
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	s2 := AttachBounded(a, root, budget)
	if !s2.Bounded() {
		t.Fatal("AttachBounded store not bounded")
	}
	if got := s2.Stats().Bytes; got != wantBytes {
		t.Fatalf("rebuilt accounting = %d bytes, want %d", got, wantBytes)
	}
	// The budget is live again: flooding far past it evicts.
	hd2 := a.NewHandle()
	for i := 0; i < 400; i++ {
		if !s2.SetBytes(hd2, []byte(fmt.Sprintf("new-%05d", i)), val) {
			t.Fatal("OOM")
		}
	}
	st := s2.Stats()
	if st.Evictions == 0 {
		t.Fatal("rebuilt bound not enforced: no evictions")
	}
	if st.Bytes > budget {
		t.Fatalf("footprint %d above budget %d", st.Bytes, budget)
	}

	// A lowered budget evicts the overage at attach time.
	s3 := AttachBounded(a, root, budget/4)
	if got := s3.Stats().Bytes; got > budget/4 {
		t.Fatalf("lowered budget not enforced at attach: %d > %d", got, budget/4)
	}
	if s3.Stats().Evictions == 0 {
		t.Fatal("no eviction despite attaching with a quarter of the budget")
	}
}

// Attach makes one pass over the map: every bucket head is loaded once, not
// once per job (repair objects, count records, bytes and stamps). With
// far fewer records than buckets the head loads dominate the count, so a
// second sweep cannot hide.
func TestAttachBoundedWalksTheMapOnce(t *testing.T) {
	h, s, root := newStore(t) // 4096 buckets
	a := h.AsAllocator()
	hd := a.NewHandle()
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if !s.SetBytesExpire(hd, k, []byte("v"), int64(i%2)*1<<60) {
			t.Fatal("OOM")
		}
		if _, err := s.HSet(hd, append(k, 'h'), []byte("f"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RPush(hd, append(k, 'l'), []byte("e")); err != nil {
			t.Fatal(err)
		}
	}
	const buckets = 4096
	before := h.Region().Stats().Loads
	s2 := AttachBounded(a, root, 1<<30)
	loads := h.Region().Stats().Loads - before
	if loads < buckets || loads >= 2*buckets {
		t.Fatalf("attach made %d word loads over %d buckets: want one sweep (at least %d, fewer than %d)",
			loads, buckets, buckets, 2*buckets)
	}
	if st := s2.Stats(); s2.Len() != 120 || st.TTLd != 20 || st.Bytes == 0 {
		t.Fatalf("one walk rebuilt Len=%d TTLd=%d Bytes=%d; want 120, 20, >0", s2.Len(), st.TTLd, st.Bytes)
	}
}

func TestStoreCrashRecovery(t *testing.T) {
	h, s, root := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	for i := 0; i < 1000; i++ {
		if !s.SetBytes(hd, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("value%04d", i))) {
			t.Fatal("OOM")
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
	if s2.Len() != 1000 {
		t.Fatalf("Len after recovery = %d, want 1000", s2.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok, _ := s2.GetBytes([]byte(fmt.Sprintf("key%04d", i)))
		if !ok || string(v) != fmt.Sprintf("value%04d", i) {
			t.Fatalf("key%04d = (%q,%v) after recovery", i, v, ok)
		}
	}
}
