package kvstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ralloc"
)

func TestHashBasics(t *testing.T) {
	h, s, _ := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()

	created, err := s.HSet(hd, []byte("h"), []byte("f1"), []byte("v1"), []byte("f2"), []byte("v2"))
	if err != nil || created != 2 {
		t.Fatalf("HSet = (%d,%v), want (2,nil)", created, err)
	}
	if typ := s.TypeOf([]byte("h")); typ != TypeHash {
		t.Fatalf("TypeOf = %v", typ)
	}
	if v, ok, err := s.HGet([]byte("h"), []byte("f1")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("HGet f1 = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := s.HGet([]byte("h"), []byte("nope")); ok {
		t.Fatal("missing field found")
	}
	// Replace keeps the count, changes the value.
	if created, _ := s.HSet(hd, []byte("h"), []byte("f1"), []byte("v1b")); created != 0 {
		t.Fatalf("replace created %d fields", created)
	}
	if v, _, _ := s.HGet([]byte("h"), []byte("f1")); string(v) != "v1b" {
		t.Fatalf("replaced value = %q", v)
	}
	if n, _ := s.HLen([]byte("h")); n != 2 {
		t.Fatalf("HLen = %d", n)
	}
	fields, values, err := s.HGetAll([]byte("h"))
	if err != nil || len(fields) != 2 || len(values) != 2 {
		t.Fatalf("HGetAll = %d/%d fields, %v", len(fields), len(values), err)
	}
	got := map[string]string{}
	for i := range fields {
		got[string(fields[i])] = string(values[i])
	}
	if got["f1"] != "v1b" || got["f2"] != "v2" {
		t.Fatalf("HGetAll content = %v", got)
	}

	// Deleting all fields deletes the key.
	if n, _ := s.HDel(hd, []byte("h"), []byte("f1"), []byte("nope")); n != 1 {
		t.Fatalf("HDel = %d", n)
	}
	if n, _ := s.HDel(hd, []byte("h"), []byte("f2")); n != 1 {
		t.Fatalf("HDel last = %d", n)
	}
	if typ := s.TypeOf([]byte("h")); typ != TypeNone {
		t.Fatalf("empty hash survived as %v", typ)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after emptying the hash", s.Len())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestListBasics(t *testing.T) {
	h, s, _ := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()

	if n, err := s.RPush(hd, []byte("l"), []byte("b"), []byte("c")); err != nil || n != 2 {
		t.Fatalf("RPush = (%d,%v)", n, err)
	}
	if n, err := s.LPush(hd, []byte("l"), []byte("a")); err != nil || n != 3 {
		t.Fatalf("LPush = (%d,%v)", n, err)
	}
	if typ := s.TypeOf([]byte("l")); typ != TypeList {
		t.Fatalf("TypeOf = %v", typ)
	}
	if n, _ := s.LLen([]byte("l")); n != 3 {
		t.Fatalf("LLen = %d", n)
	}
	vals, err := s.LRange([]byte("l"), 0, -1)
	if err != nil || len(vals) != 3 {
		t.Fatalf("LRange = %d vals, %v", len(vals), err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if string(vals[i]) != want {
			t.Fatalf("LRange[%d] = %q, want %q", i, vals[i], want)
		}
	}
	// Negative and clamped indexes, Redis-style.
	if vals, _ := s.LRange([]byte("l"), -2, -1); len(vals) != 2 || string(vals[0]) != "b" {
		t.Fatalf("LRange -2..-1 = %v", vals)
	}
	if vals, _ := s.LRange([]byte("l"), 5, 9); len(vals) != 0 {
		t.Fatalf("out-of-range LRange = %v", vals)
	}

	if v, ok, _ := s.LPop(hd, []byte("l")); !ok || string(v) != "a" {
		t.Fatalf("LPop = (%q,%v)", v, ok)
	}
	if v, ok, _ := s.RPop(hd, []byte("l")); !ok || string(v) != "c" {
		t.Fatalf("RPop = (%q,%v)", v, ok)
	}
	// Popping the last element deletes the key.
	if v, ok, _ := s.LPop(hd, []byte("l")); !ok || string(v) != "b" {
		t.Fatalf("last LPop = (%q,%v)", v, ok)
	}
	if typ := s.TypeOf([]byte("l")); typ != TypeNone {
		t.Fatalf("empty list survived as %v", typ)
	}
	if _, ok, _ := s.LPop(hd, []byte("l")); ok {
		t.Fatal("LPop on missing key succeeded")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	h, s, _ := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	s.SetBytes(hd, []byte("str"), []byte("v"))
	s.HSet(hd, []byte("hash"), []byte("f"), []byte("v"))
	s.RPush(hd, []byte("list"), []byte("e"))

	// Object ops on a string, string ops on objects, and cross-object ops
	// all surface ErrWrongType.
	if _, err := s.HSet(hd, []byte("str"), []byte("f"), []byte("v")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("HSet on string: %v", err)
	}
	if _, _, err := s.HGet([]byte("list"), []byte("f")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("HGet on list: %v", err)
	}
	if _, err := s.RPush(hd, []byte("hash"), []byte("v")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("RPush on hash: %v", err)
	}
	if _, _, err := s.LPop(hd, []byte("str")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("LPop on string: %v", err)
	}
	if _, ok, err := s.GetBytes([]byte("hash")); ok || !errors.Is(err, ErrWrongType) {
		t.Fatalf("GetBytes on hash = (%v,%v)", ok, err)
	}
	if _, err := s.LRange([]byte("hash"), 0, -1); !errors.Is(err, ErrWrongType) {
		t.Fatalf("LRange on hash: %v", err)
	}

	// SET overwrites any type, Redis-style, freeing the old graph.
	if !s.SetBytes(hd, []byte("hash"), []byte("now-a-string")) {
		t.Fatal("SET over hash failed")
	}
	if typ := s.TypeOf([]byte("hash")); typ != TypeString {
		t.Fatalf("TypeOf after overwrite = %v", typ)
	}
	// DEL works on any type and frees the graph.
	if !s.Delete(hd, []byte("list")) {
		t.Fatal("DEL list failed")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectTTLAndReap(t *testing.T) {
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()

	s.HSet(hd, []byte("h"), []byte("secret"), []byte("old"))
	if !s.Expire([]byte("h"), clk.now()+100) {
		t.Fatal("Expire on hash failed")
	}
	if got := s.PTTL([]byte("h")); got <= 0 || got > 100 {
		t.Fatalf("PTTL = %d", got)
	}
	clk.advance(200)

	// Lazy expiry hides the object from every read.
	if typ := s.TypeOf([]byte("h")); typ != TypeNone {
		t.Fatalf("expired hash TypeOf = %v", typ)
	}
	if _, ok, err := s.HGet([]byte("h"), []byte("secret")); ok || err != nil {
		t.Fatalf("expired HGet = (%v,%v)", ok, err)
	}
	if n, _ := s.HLen([]byte("h")); n != 0 {
		t.Fatalf("expired HLen = %d", n)
	}

	// A write to the expired key reaps the corpse: the old field must not
	// resurrect into the fresh object, and the fresh object is immortal.
	if created, err := s.HSet(hd, []byte("h"), []byte("new"), []byte("v")); err != nil || created != 1 {
		t.Fatalf("HSet on expired = (%d,%v)", created, err)
	}
	if _, ok, _ := s.HGet([]byte("h"), []byte("secret")); ok {
		t.Fatal("dead field resurrected")
	}
	if got := s.PTTL([]byte("h")); got != TTLNone {
		t.Fatalf("recreated hash PTTL = %d, want TTLNone", got)
	}

	// Same for lists, and ReclaimExpired frees whole graphs.
	s.RPush(hd, []byte("l"), []byte("a"), []byte("b"))
	s.Expire([]byte("l"), clk.now()+50)
	clk.advance(100)
	if n := s.ReclaimExpired(hd, 16); n != 1 {
		t.Fatalf("ReclaimExpired = %d, want 1 (the list)", n)
	}
	if typ := s.TypeOf([]byte("l")); typ != TypeNone {
		t.Fatalf("reclaimed list TypeOf = %v", typ)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSkipsExpiredAndObjects is the satellite regression: an expired
// key must never appear in a Range walk (its value is dead to every other
// read path), and object payloads must not leak as pseudo-values.
func TestRangeSkipsExpiredAndObjects(t *testing.T) {
	h, s, _, clk := newTTLStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	s.SetBytes(hd, []byte("live"), []byte("v"))
	s.SetBytesExpire(hd, []byte("dead"), []byte("corpse"), clk.now()+10)
	s.HSet(hd, []byte("h"), []byte("f"), []byte("v"))
	s.RPush(hd, []byte("l"), []byte("e"))
	clk.advance(100)

	seen := map[string]string{}
	s.Range(func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	})
	if len(seen) != 1 || seen["live"] != "v" {
		t.Fatalf("Range walked %v, want only live", seen)
	}
	if _, dead := seen["dead"]; dead {
		t.Fatal("expired key surfaced in Range")
	}

	// Scan sees the live typed keyspace, still skipping the corpse.
	types := map[string]Type{}
	s.Scan(func(k []byte, typ Type) bool {
		types[string(k)] = typ
		return true
	})
	if len(types) != 3 || types["h"] != TypeHash || types["l"] != TypeList || types["live"] != TypeString {
		t.Fatalf("Scan = %v", types)
	}
	tc := s.CountTypes()
	if tc.Strings != 1 || tc.Hashes != 1 || tc.Lists != 1 {
		t.Fatalf("CountTypes = %+v", tc)
	}

	// DeleteAll purges corpses too (Len counts them; Range does not).
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4 incl. the corpse", s.Len())
	}
	s.DeleteAll(hd)
	if s.Len() != 0 {
		t.Fatalf("Len after DeleteAll = %d", s.Len())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectCrashRecovery(t *testing.T) {
	h, s, root := newStore(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("hash-%03d", i))
		for f := 0; f < 8; f++ {
			if _, err := s.HSet(hd, key, []byte(fmt.Sprintf("f%02d", f)), []byte(fmt.Sprintf("v%03d-%02d", i, f))); err != nil {
				t.Fatal(err)
			}
		}
		lkey := []byte(fmt.Sprintf("list-%03d", i))
		for e := 0; e < 8; e++ {
			if _, err := s.RPush(hd, lkey, []byte(fmt.Sprintf("e%03d-%02d", i, e))); err != nil {
				t.Fatal(err)
			}
		}
		s.SetBytes(hd, []byte(fmt.Sprintf("str-%03d", i)), []byte(fmt.Sprintf("s%03d", i)))
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
	if s2.Len() != 150 {
		t.Fatalf("Len after recovery = %d, want 150", s2.Len())
	}
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("hash-%03d", i))
		if n, err := s2.HLen(key); err != nil || n != 8 {
			t.Fatalf("recovered HLen(%s) = (%d,%v)", key, n, err)
		}
		if v, ok, err := s2.HGet(key, []byte("f03")); err != nil || !ok || string(v) != fmt.Sprintf("v%03d-03", i) {
			t.Fatalf("recovered HGet(%s,f03) = (%q,%v,%v)", key, v, ok, err)
		}
		lkey := []byte(fmt.Sprintf("list-%03d", i))
		vals, err := s2.LRange(lkey, 0, -1)
		if err != nil || len(vals) != 8 {
			t.Fatalf("recovered LRange(%s) = %d vals, %v", lkey, len(vals), err)
		}
		for e, v := range vals {
			if string(v) != fmt.Sprintf("e%03d-%02d", i, e) {
				t.Fatalf("recovered %s[%d] = %q", lkey, e, v)
			}
		}
		// The deque survives end-to-end: pops from both ends agree with
		// the forward walk (tail/prev links repaired or intact).
		hd2 := a.NewHandle()
		if v, ok, _ := s2.RPop(hd2, lkey); !ok || string(v) != fmt.Sprintf("e%03d-07", i) {
			t.Fatalf("recovered RPop(%s) = %q,%v", lkey, v, ok)
		}
		if v, ok, _ := s2.LPop(hd2, lkey); !ok || string(v) != fmt.Sprintf("e%03d-00", i) {
			t.Fatalf("recovered LPop(%s) = %q,%v", lkey, v, ok)
		}
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedStoreChargesObjectGraphs: a bounded store must charge a hash
// or list its whole graph footprint and release it on eviction — endless
// object churn cannot grow the heap without bound.
func TestBoundedStoreChargesObjectGraphs(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 64 << 20, GrowthChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	budget := uint64(256 << 10)
	s, _ := OpenBounded(a, hd, 256, budget)
	val := make([]byte, 64)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("obj-%05d", i))
		if i%2 == 0 {
			for f := 0; f < 16; f++ {
				if _, err := s.HSet(hd, key, []byte(fmt.Sprintf("f%03d", f)), val); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for e := 0; e < 16; e++ {
				if _, err := s.RPush(hd, key, val); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite object churn far past the budget")
	}
	if st.Bytes > budget {
		t.Fatalf("accounted %d bytes above budget %d", st.Bytes, budget)
	}
	used := h.SBUsed()
	for i := 200; i < 600; i++ {
		key := []byte(fmt.Sprintf("obj-%05d", i))
		for f := 0; f < 16; f++ {
			if _, err := s.HSet(hd, key, []byte(fmt.Sprintf("f%03d", f)), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.SBUsed() > used+used/5 {
		t.Fatalf("bounded object churn grew the heap: %d -> %d", used, h.SBUsed())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachBoundedChargesObjectGraphs: the rebuilt budget must equal the
// pre-crash accounting even when the keyspace is mostly object graphs.
func TestAttachBoundedChargesObjectGraphs(t *testing.T) {
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 64 << 20, GrowthChunk: 1 << 20,
		Pmem: pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	budget := uint64(1 << 20)
	s, root := OpenBounded(a, hd, 256, budget)
	h.SetRoot(0, root)
	val := make([]byte, 64)
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("obj-%03d", i))
		for f := 0; f < 8; f++ {
			s.HSet(hd, key, []byte(fmt.Sprintf("f%d", f)), val)
		}
		s.RPush(hd, []byte(fmt.Sprintf("lst-%03d", i)), val, val, val)
	}
	want := s.Stats().Bytes
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, Filter(a, root))
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	s2 := AttachBounded(a, root, budget)
	if got := s2.Stats().Bytes; got != want {
		t.Fatalf("rebuilt accounting = %d bytes, want %d", got, want)
	}
}
