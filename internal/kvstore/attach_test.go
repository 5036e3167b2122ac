package kvstore

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/pmem"
	"repro/internal/pptr"
	"repro/internal/ralloc"
)

// A dirty heap's store is attached by one of two drivers of one per-record
// routine (dstruct.Recovery): the bucket walk, after a recovery that used the
// pure filter, or the recovery trace itself. restartMode says which, and with
// how many recovery workers; the tests here recover under every mode.
type restartMode struct {
	fused   bool
	workers int
}

var restartModes = []restartMode{{false, 1}, {false, 4}, {true, 1}, {true, 4}}

func (m restartMode) String() string {
	if m.fused {
		return fmt.Sprintf("fused/workers=%d", m.workers)
	}
	return fmt.Sprintf("trace-then-walk/workers=%d", m.workers)
}

// restart recovers the crashed heap h, whose store is rooted in slot 0, and
// attaches the store.
func (m restartMode) restart(t *testing.T, h *ralloc.Heap, bound uint64) *Store {
	t.Helper()
	a := h.AsAllocator()
	root := h.GetRoot(0, nil)
	var at *Attaching
	if m.fused {
		at = BeginAttach(a, root, bound)
		h.GetRoot(0, at.Filter())
	} else {
		h.GetRoot(0, Filter(a, root))
	}
	if _, err := h.RecoverParallel(m.workers); err != nil {
		t.Fatalf("%v: recovery: %v", m, err)
	}
	if m.fused {
		return at.Finish()
	}
	return AttachBounded(a, root, bound)
}

// walkedRecords counts the records actually reachable in the map, expired
// ones included — what Len must equal.
func walkedRecords(s *Store) int {
	n := 0
	s.m.Range(0, s.m.Buckets(), func(dstruct.Record) bool { n++; return true })
	return n
}

func assertLenMatchesWalk(t *testing.T, s *Store) {
	t.Helper()
	if walked := walkedRecords(s); s.Len() != walked {
		t.Fatalf("walk sees %d records, Len()=%d", walked, s.Len())
	}
}

var attachImageCfg = ralloc.Config{SBRegion: 4 << 20, GrowthChunk: 1 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}

const (
	attachImageStrings = 300                    // a third dead, a third TTL'd and live, a third immortal
	attachImageKeys    = attachImageStrings + 3 // and the list, the hash, the empty list
)

// recordOf finds key's record node by decoding the documented layout
// (dstruct/hashmap.go, object.go) — these tests damage words no operation
// would — and objHeaderOf the header of the object behind it.
func recordOf(t *testing.T, r *pmem.Region, root uint64, key string) uint64 {
	t.Helper()
	arr, _ := pptr.Unpack(root, r.Load(root))
	for slot := arr; slot < arr+r.Load(root+8)*8; slot += 8 {
		for off, ok := pptr.Unpack(slot, r.Load(slot)); ok; off, ok = pptr.Unpack(off, r.Load(off)) {
			if r.Load(off+8)>>32&(1<<29-1) == uint64(len(key)) && r.EqualBytes(off+24, []byte(key)) {
				return off
			}
		}
	}
	t.Fatalf("no record %q", key)
	return 0
}

func objHeaderOf(t *testing.T, r *pmem.Region, root uint64, key string) uint64 {
	p := recordOf(t, r, root, key) + 24 + (uint64(len(key))+7)&^7
	hdr, _ := pptr.Unpack(p, r.Load(p))
	return hdr
}

// attachImage is a crashed heap with everything an attach has to mend at
// once: TTL'd strings dead and alive, a list whose tail, prev and length
// words are stale, a hash whose count and bytes words drifted, a list left
// empty (its record still linked), and a map count word that is wrong.
func attachImage(t *testing.T) []byte {
	t.Helper()
	h, _, err := ralloc.Open("", attachImageCfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := Open(a, hd, 64)
	h.SetRoot(0, root)
	for i := 0; i < attachImageStrings; i++ {
		deadline := []int64{1, 1 << 60, 0}[i%3]
		if !s.SetBytesExpire(hd, []byte(fmt.Sprintf("s%03d", i)), []byte("sixteen bytes!!!"), deadline) {
			t.Fatal("OOM")
		}
	}
	for _, e := range []string{"a", "b", "c", "d"} {
		if _, err := s.RPush(hd, []byte("list"), []byte(e)); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 5; f++ {
		if _, err := s.HSet(hd, []byte("hash"), []byte(fmt.Sprintf("f%d", f)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RPush(hd, []byte("empty"), []byte("gone")); err != nil {
		t.Fatal(err)
	}

	r := h.Region()
	list := objHeaderOf(t, r, root, "list")
	head, _ := pptr.Unpack(list, r.Load(list))
	second, _ := pptr.Unpack(head, r.Load(head))
	r.Store(second+8, pptr.Pack(second+8, list)) // prev: not the head
	r.Store(list+8, pptr.Nil)                    // tail
	r.Store(list+16, 99)                         // length
	hash := objHeaderOf(t, r, root, "hash")
	r.Store(hash+16, 1) // field count
	r.Store(hash+24, 7) // graph bytes
	r.Store(objHeaderOf(t, r, root, "empty"), pptr.Nil)
	r.Store(root+16, 5) // the map's count
	r.Persist()
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := r.Save(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

func openAttachImage(t *testing.T, img []byte) *ralloc.Heap {
	t.Helper()
	r, err := pmem.LoadRegion(bytes.NewReader(img), attachImageCfg.Pmem)
	if err != nil {
		t.Fatal(err)
	}
	h, dirty, err := ralloc.Attach(r, attachImageCfg)
	if err != nil || !dirty {
		t.Fatalf("attach image: dirty=%v err=%v", dirty, err)
	}
	return h
}

// blocks is the superblock region: every block's bytes, none of the
// allocator's list words (whose order depends on the sweep's scheduling).
func blocks(h *ralloc.Heap) []byte {
	b := make([]byte, h.SBUsed())
	h.Region().ReadBytes(h.SBStart(), b)
	return b
}

// The differential test: one image, recovered by trace-then-walk with one
// worker (the reference) and by every other mode and worker count, must come
// out the same — the record count, the expiry index entry for entry, the
// repaired object words and every other block byte; for a store over its
// budget the evictions and the bytes left (which records go is recency, i.e.
// traversal order, and is not compared).
func TestFusedAttachEqualsTraceThenWalk(t *testing.T) {
	img := attachImage(t)
	// 200 live strings of 48 bytes and two objects: well over 4 KB.
	const bound = 4 << 10
	type outcome struct {
		len    int
		exp    map[string]int64
		blocks []byte
		stats  Stats
	}
	recoverAs := func(m restartMode) (free, bounded outcome) {
		h := openAttachImage(t, img)
		s := m.restart(t, h, 0)
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertLenMatchesWalk(t, s)
		free = outcome{len: s.Len(), exp: maps.Clone(s.exp.at), blocks: blocks(h), stats: s.Stats()}
		s = m.restart(t, openAttachImage(t, img), bound)
		assertLenMatchesWalk(t, s)
		return free, outcome{len: s.Len(), stats: s.Stats()}
	}
	wantFree, wantBounded := recoverAs(restartMode{false, 1})
	if wantFree.len != attachImageKeys-1 || len(wantFree.exp) != attachImageStrings*2/3 {
		t.Fatalf("reference: %d records, %d deadlines; want %d (the empty list deleted), %d",
			wantFree.len, len(wantFree.exp), attachImageKeys-1, attachImageStrings*2/3)
	}
	if wantBounded.stats.Evictions == 0 || wantBounded.stats.Bytes > bound {
		t.Fatalf("reference: bounded attach evicted %d, holds %d bytes of %d", wantBounded.stats.Evictions, wantBounded.stats.Bytes, bound)
	}
	for _, fused := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			m := restartMode{fused, workers}
			free, bounded := recoverAs(m)
			if free.len != wantFree.len || !maps.Equal(free.exp, wantFree.exp) || free.stats != wantFree.stats {
				t.Errorf("%v: Len %d, %d deadlines, %+v; reference %d, %d, %+v",
					m, free.len, len(free.exp), free.stats, wantFree.len, len(wantFree.exp), wantFree.stats)
			}
			if !bytes.Equal(free.blocks, wantFree.blocks) {
				t.Errorf("%v: the blocks differ from the reference's", m)
			}
			// Not the whole Stats: how many victims carried a deadline is
			// recency too.
			if bs, ws := bounded.stats, wantBounded.stats; bounded.len != wantBounded.len || bs.Evictions != ws.Evictions || bs.Bytes != ws.Bytes {
				t.Errorf("%v, bounded: Len %d, %d evictions, %d bytes; reference %d, %d, %d",
					m, bounded.len, bs.Evictions, bs.Bytes, wantBounded.len, ws.Evictions, ws.Bytes)
			}
		}
	}
}

// The filter an Attaching registers stays registered for the life of the
// heap. While the attach is open it visits and stores nothing (Trace is
// read-only); once Finish has run it only marks: tracing again moves neither
// the record count nor an index.
func TestAttachingFilterStoresNothingAndIsInertAfterFinish(t *testing.T) {
	h := openAttachImage(t, attachImage(t))
	a := h.AsAllocator()
	root := h.GetRoot(0, nil)

	before, stores := blocks(h), h.Region().Stats().Stores
	h.GetRoot(0, BeginAttach(a, root, 1<<30).Filter()) // abandoned: an audit
	wantBlocks, _ := h.Trace()
	if got := h.Region().Stats().Stores; got != stores || !bytes.Equal(blocks(h), before) {
		t.Fatalf("a trace with the attach riding it made %d stores", got-stores)
	}

	at := BeginAttach(a, root, 1<<30)
	h.GetRoot(0, at.Filter())
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != wantBlocks {
		t.Fatalf("recovery reached %d blocks, the audit %d", stats.ReachableBlocks, wantBlocks)
	}
	s := at.Finish()
	wantLen, wantStats, wantExp := s.Len(), s.Stats(), maps.Clone(s.exp.at)
	if wantLen != attachImageKeys-1 {
		t.Fatalf("Len = %d, want %d", wantLen, attachImageKeys-1)
	}
	after := blocks(h)
	stores = h.Region().Stats().Stores
	if n, _ := h.Trace(); n != wantBlocks-2 { // the empty list's record and header went
		t.Fatalf("after Finish the trace reaches %d blocks, want %d", n, wantBlocks-2)
	}
	if s.Len() != wantLen || s.Stats() != wantStats || !maps.Equal(s.exp.at, wantExp) {
		t.Fatalf("a trace after Finish moved the store: Len %d -> %d, %+v -> %+v", wantLen, s.Len(), wantStats, s.Stats())
	}
	if got := h.Region().Stats().Stores; got != stores || !bytes.Equal(blocks(h), after) {
		t.Fatalf("a trace after Finish made %d stores", got-stores)
	}
}

// Chains no crash produces, only a hostile image: the fused count is of the
// records the trace marked, each once, so it terminates wherever the trace
// does and agrees with what recovery kept.
func TestFusedAttachCountsEachMarkedRecordOnce(t *testing.T) {
	const records = 40
	for _, tc := range []struct {
		name   string
		damage func(r *pmem.Region, root uint64)
	}{
		{"a next word aimed inside another record", func(r *pmem.Region, root uint64) {
			n := recordOf(t, r, root, "k00")
			r.Store(n, pptr.Pack(n, recordOf(t, r, root, "k01")+8))
		}},
		{"two buckets sharing a node", func(r *pmem.Region, root uint64) {
			arr, _ := pptr.Unpack(root, r.Load(root))
			for slot := arr; ; slot += 8 {
				if r.Load(slot) == pptr.Nil {
					r.Store(slot, pptr.Pack(slot, recordOf(t, r, root, "k00")))
					return
				}
			}
		}},
	} {
		for _, mode := range restartModes {
			h, _, err := ralloc.Open("", attachImageCfg)
			if err != nil {
				t.Fatal(err)
			}
			a := h.AsAllocator()
			s, root := Open(a, a.NewHandle(), 64)
			h.SetRoot(0, root)
			for i := 0; i < records; i++ {
				if !s.SetBytes(a.NewHandle(), []byte(fmt.Sprintf("k%02d", i)), []byte("v")) {
					t.Fatal("OOM")
				}
			}
			tc.damage(h.Region(), root)
			h.Region().Persist()
			if err := h.Region().Crash(); err != nil {
				t.Fatal(err)
			}
			s = mode.restart(t, h, 0)
			marked, _ := h.Trace()
			marked -= 2 // the map's header and its bucket array
			if marked > records || marked < records/2 {
				t.Fatalf("%s, %v: the trace keeps %d records of %d", tc.name, mode, marked, records)
			}
			if mode.fused && s.Len() != int(marked) {
				t.Fatalf("%s, %v: Len() = %d, the trace marked %d records", tc.name, mode, s.Len(), marked)
			}
			t.Logf("%s, %v: Len() = %d, %d records marked", tc.name, mode, s.Len(), marked)
		}
	}
}
