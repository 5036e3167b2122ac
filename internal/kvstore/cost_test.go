package kvstore

import (
	"fmt"
	"testing"
)

// Cost pins for the record path. The shared find/publish/unlink/walk of
// dstruct must keep the hot path free of Go allocations beyond the value a
// read hands back, and must issue exactly the fences the crash discipline
// needs — no more (a silent slowdown under the paper's cost model) and no
// fewer (a silent hole in it).

// TestRecordPathAllocs counts Go allocations per operation on an unbounded,
// TTL-free store at the benchmark's load factor (200k records in 262,144
// buckets ≈ 0.76, so a good share of lookups walk past another key first —
// which is where a copy-to-compare shows up).
func TestRecordPathAllocs(t *testing.T) {
	h, s, _ := newStore(t) // 4096 buckets
	hd := h.AsAllocator().NewHandle()
	const records = 3113 // 0.76 × 4096
	keys := make([][]byte, records)
	val := []byte("a value of some forty bytes, more or less")
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
		if !s.SetBytes(hd, keys[i], val) {
			t.Fatal("OOM")
		}
	}
	hkey, field := []byte("a-hash"), []byte("field")
	if _, err := s.HSet(hd, hkey, field, val); err != nil {
		t.Fatal(err)
	}
	perOp := func(op func(key []byte)) float64 {
		return testing.AllocsPerRun(5, func() {
			for _, k := range keys {
				op(k)
			}
		}) / records
	}
	for _, c := range []struct {
		name string
		max  float64
		op   func(key []byte)
	}{
		{"GetBytes", 1, func(k []byte) { s.GetBytes(k) }}, // the returned value
		{"SetBytes replace", 0, func(k []byte) { s.SetBytes(hd, k, val) }},
		{"TypeOf", 0, func(k []byte) { s.TypeOf(k) }},
		{"PTTL", 0, func(k []byte) { s.PTTL(k) }},
		{"HGet", 1, func([]byte) { s.HGet(hkey, field) }}, // the returned value
		{"Delete + SetBytes insert", 0, func(k []byte) { s.Delete(hd, k); s.SetBytes(hd, k, val) }},
	} {
		if got := perOp(c.op); got > c.max {
			t.Errorf("%s: %.2f allocs/op, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestRecordPathFences pins the fences each mutation issues — two for a
// publish (node before the swing, swing before the ack), one for an unlink
// or an in-place stamp, one more for a list's trailing bookkeeping — and
// checks they do not depend on how key and value lengths fall against the
// 8-byte word.
func TestRecordPathFences(t *testing.T) {
	h, s, _ := newStore(t)
	hd := h.AsAllocator().NewHandle()
	r := h.Region()
	seq := 0
	// fences runs setup then op on a fresh key several times and returns
	// the fewest fences any op took: the allocator adds its own when a
	// malloc has to carve a new superblock, which is not the record path's.
	fences := func(klen, vlen int, setup, op func(key, val []byte)) uint64 {
		fewest := ^uint64(0)
		for rep := 0; rep < 4; rep++ {
			seq++
			key := []byte(fmt.Sprintf("%0*d", klen+8, seq))
			val := []byte(fmt.Sprintf("%0*d", vlen, seq))
			if setup != nil {
				setup(key, val)
			}
			before := r.Stats().Fences
			op(key, val)
			fewest = min(fewest, r.Stats().Fences-before)
		}
		return fewest
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	f := []byte("f")
	hset := func(k, v []byte) { _, err := s.HSet(hd, k, f, v); must(err) }
	rpush := func(k, v []byte) { _, err := s.RPush(hd, k, v); must(err) }
	rpush2 := func(k, v []byte) { rpush(k, v); rpush(k, v) }
	for _, c := range []struct {
		name  string
		want  uint64
		setup func(key, val []byte)
		op    func(key, val []byte)
	}{
		{"SetBytes insert", 2, nil, func(k, v []byte) { s.SetBytes(hd, k, v) }},
		{"SetBytes replace", 2, func(k, v []byte) { s.SetBytes(hd, k, v) }, func(k, v []byte) { s.SetBytes(hd, k, v) }},
		{"Expire", 1, func(k, v []byte) { s.SetBytes(hd, k, v) }, func(k, _ []byte) { s.Expire(k, s.Now()+1e6) }},
		{"Delete", 1, func(k, v []byte) { s.SetBytes(hd, k, v) }, func(k, _ []byte) { s.Delete(hd, k) }},
		{"HSet new field", 2, hset, func(k, v []byte) { _, err := s.HSet(hd, k, v, v); must(err) }},
		{"HSet replaced field", 2, hset, hset},
		{"HDel field", 1, func(k, v []byte) { hset(k, v); _, err := s.HSet(hd, k, v, v); must(err) },
			func(k, v []byte) { _, err := s.HDel(hd, k, v); must(err) }},
		{"HDel last field", 2, hset, func(k, _ []byte) { _, err := s.HDel(hd, k, f); must(err) }},
		{"RPush", 3, rpush, rpush},
		{"LPush", 3, rpush, func(k, v []byte) { _, err := s.LPush(hd, k, v); must(err) }},
		{"LPop", 2, rpush2, func(k, _ []byte) { _, _, err := s.LPop(hd, k); must(err) }},
		{"RPop", 2, rpush2, func(k, _ []byte) { _, _, err := s.RPop(hd, k); must(err) }},
		{"LPop last element", 1, rpush, func(k, _ []byte) { _, _, err := s.LPop(hd, k); must(err) }},
	} {
		for klen := 1; klen <= 8; klen++ { // key lengths 9..16: every offset mod 8
			for _, vlen := range []int{1, 7, 8, 9} {
				if got := fences(klen, vlen, c.setup, c.op); got != c.want {
					t.Errorf("%s (key %d bytes, value %d): %d fences, want %d", c.name, klen+8, vlen, got, c.want)
				}
			}
		}
	}
}
