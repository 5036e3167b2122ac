package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dstruct"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Per-layer rows of kvstore and dstruct, and the rows that price the same
// GET and SET streams one and two layers further down, so that a layer's
// self time can be had by differencing.

// encoded is an op stream with its keys and values laid out ahead of time, so
// a layer's measured time holds no generator work.
type encoded struct {
	ops  []op
	keys []byte
	vals []byte
}

func encode(ops []op) *encoded {
	e := &encoded{ops: ops, keys: make([]byte, 0, len(ops)*keyLen), vals: make([]byte, 0, len(ops)*valLen)}
	for _, o := range ops {
		e.keys = appendKey(e.keys, o.id)
		e.vals = appendValue(e.vals, o.id, uint32(o.arg))
	}
	return e
}

func (e *encoded) key(i int) []byte { return e.keys[i*keyLen : (i+1)*keyLen] }
func (e *encoded) val(i int) []byte { return e.vals[i*valLen : (i+1)*valLen] }

// openHeap opens a volatile heap configured as the server's.
func openHeap(mb int) (*ralloc.Heap, alloc.Allocator, alloc.Handle, error) {
	heap, _, err := ralloc.Open("", ralloc.Config{SBRegion: uint64(mb) << 20, Pmem: servedPmem})
	if err != nil {
		return nil, nil, nil, err
	}
	a := heap.AsAllocator()
	return heap, a, a.NewHandle(), nil
}

// loadRecords stores version 0 of every record through set.
func loadRecords(records int, set func(key, val []byte) bool) error {
	var key, val []byte
	for id := 0; id < records; id++ {
		key, val = appendKey(key[:0], uint32(id)), appendValue(val[:0], uint32(id), 0)
		if !set(key, val) {
			return fmt.Errorf("load: out of memory at record %d", id)
		}
	}
	return nil
}

// sizeRecorder wraps a handle and notes the sizes it is asked for.
type sizeRecorder struct {
	alloc.Handle
	sizes []uint64
}

func (s *sizeRecorder) Malloc(size uint64) uint64 {
	s.sizes = append(s.sizes, size)
	return s.Handle.Malloc(size)
}

func layerKV(r *run, t *tracer) error {
	sc, n := r.sc, r.sc.traceOps
	gets := encode(genStream("kv_read", r.opt.seed, 0, sc.records, n))
	sets := encode(genStream("set_only", r.opt.seed, 0, sc.records, n))
	failed := 0
	checkGet := func(v []byte, ok bool, id uint32) {
		if _, good := checkValue(v, id); !ok || !good {
			failed++
		}
	}

	// kvstore over its own heap, dstruct's map over another: the same records
	// in both, so the same stream does the same work one layer apart.
	heap, a, hd, err := openHeap(sc.smallHeapMB)
	if err != nil {
		return err
	}
	store, root := kvstore.Open(a, hd, sc.buckets)
	heap.SetRoot(0, root)
	if err := loadRecords(sc.records, func(k, v []byte) bool { return store.SetBytes(hd, k, v) }); err != nil {
		return err
	}
	_, ma, mhd, err := openHeap(sc.smallHeapMB)
	if err != nil {
		return err
	}
	m, _ := dstruct.NewHashMap(ma, mhd, sc.buckets)
	if err := loadRecords(sc.records, func(k, v []byte) bool { return m.Set(mhd, k, v) }); err != nil {
		return err
	}

	// One SET through a recording handle tells which block sizes a SET
	// allocates; the allocator-level replay then allocates those sizes and
	// frees the record's previous blocks, record by record, on a third heap.
	rec := &sizeRecorder{Handle: mhd}
	m.Set(rec, sets.key(0), sets.val(0))
	if len(rec.sizes) == 0 {
		return fmt.Errorf("a SET allocated nothing: cannot derive the allocator-level stream")
	}
	_, ra, rhd, err := openHeap(sc.smallHeapMB)
	if err != nil {
		return err
	}
	blocks := make([]uint64, sc.records*len(rec.sizes))
	for i := range blocks {
		blocks[i] = rhd.Malloc(rec.sizes[i%len(rec.sizes)])
	}
	// And the region-level replay writes, flushes and fences (or reads) that
	// many bytes at a record-strided offset of a plain region.
	var recBytes uint64
	for _, s := range rec.sizes {
		recBytes += s
	}
	stride := (recBytes + pmem.LineBytes - 1) / pmem.LineBytes * pmem.LineBytes
	preg := pmem.NewRegion(uint64(sc.records)*stride+pmem.LineBytes, servedPmem)
	pbuf := make([]byte, recBytes)

	// The GET stream at three entry points, then the SET stream at four,
	// each chain interleaved chunk by chunk.
	get := t.measureChain(n,
		entry{"kvstore.get", a.Region(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v, ok, _ := store.GetBytes(gets.key(i))
				checkGet(v, ok, gets.ops[i].id)
			}
		}},
		entry{"dstruct.hashmap_get", ma.Region(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v, ok := m.Get(gets.key(i))
				checkGet(v, ok, gets.ops[i].id)
			}
		}},
		entry{"pmem.kv_get_bytes", preg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				preg.ReadBytes(uint64(gets.ops[i].id)*stride, pbuf)
			}
		}})
	set := t.measureChain(n,
		entry{"kvstore.set", a.Region(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !store.SetBytes(hd, sets.key(i), sets.val(i)) {
					failed++
				}
			}
		}},
		entry{"dstruct.hashmap_set", ma.Region(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !m.Set(mhd, sets.key(i), sets.val(i)) {
					failed++
				}
			}
		}},
		entry{"ralloc.kv_set_seq", ra.Region(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				old := blocks[int(sets.ops[i].id)*len(rec.sizes):][:len(rec.sizes)]
				for j, size := range rec.sizes {
					b := rhd.Malloc(size)
					if b == 0 {
						failed++
					}
					rhd.Free(old[j])
					old[j] = b
				}
			}
		}},
		entry{"pmem.kv_set_bytes", preg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				off := uint64(sets.ops[i].id) * stride
				preg.WriteBytes(off, pbuf)
				preg.FlushRange(off, recBytes)
				preg.Fence()
			}
		}})
	r.tally.ops += uint64(7 * n)
	kg, dg, pg := get[0], get[1], get[2]
	ks, ds, as, ps := set[0], set[1], set[2], set[3]
	r.set("kvstore.get.ns", kg.ns)
	r.set("kvstore.get.allocs", kg.allocs)
	r.set("kvstore.get.self_ns", kg.ns-dg.ns)
	r.set("kvstore.set.ns", ks.ns)
	r.set("kvstore.set.flushes", ks.flushes)
	r.set("kvstore.set.fences", ks.fences)
	r.set("kvstore.set.allocs", ks.allocs)
	r.set("kvstore.set.self_ns", ks.ns-ds.ns)
	r.set("dstruct.hashmap_get.ns", dg.ns)
	r.set("dstruct.hashmap_get.loads", dg.loads)
	r.set("dstruct.hashmap_set.ns", ds.ns)
	r.set("dstruct.hashmap_set.flushes", ds.flushes)
	r.set("dstruct.hashmap_set.fences", ds.fences)
	r.set("dstruct.hashmap_set.self_ns", ds.ns-as.ns-ps.ns)
	r.set("ralloc.kv_set_seq.ns", as.ns)
	r.set("pmem.kv_get_bytes.ns", pg.ns)
	r.set("pmem.kv_set_bytes.ns", ps.ns)
	r.set("ralloc.sb_used_per_user_byte", float64(heap.SBUsed())/float64(sc.records*(keyLen+valLen)))

	// Delete a run of records (the map is not used again).
	del := min(n, sc.records)
	r.set("dstruct.hashmap_delete.ns", t.measure("dstruct.hashmap_delete", del, ma.Region(), func(lo, hi int) {
		var key []byte
		for id := lo; id < hi; id++ {
			key = appendKey(key[:0], uint32(id))
			if !m.Delete(mhd, key) {
				failed++
			}
		}
	}).ns)

	r.set("kvstore.attach.ms", t.measure("kvstore.attach", 1, a.Region(), func(int, int) {
		store = kvstore.Attach(a, root)
	}).ns/1e6)
	if store.Len() != sc.records {
		failed++
	}

	// The object layer: hashes of 8 fields, and a push/pop pair on lists.
	names := func(prefix string, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = fmt.Appendf(nil, "%s%06d", prefix, i)
		}
		return out
	}
	fields, hkeys, lkeys := names("f", 8), names("hash", 1024), names("list", 64)
	field := func(i int) []byte { return fields[i%8] }
	hkey := func(i int) []byte { return hkeys[i/8%len(hkeys)] }
	hs := t.measure("kvstore.hset", n/4, a.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := store.HSet(hd, hkey(i), field(i), sets.val(i)); err != nil {
				failed++
			}
		}
	})
	r.set("kvstore.hset.ns", hs.ns)
	r.set("kvstore.hset.flushes", hs.flushes)
	r.set("kvstore.hget.ns", t.measure("kvstore.hget", n/4, a.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v, ok, err := store.HGet(hkey(i), field(i)); err != nil || !ok || len(v) != valLen {
				failed++
			}
		}
	}).ns)
	lkey := func(i int) []byte { return lkeys[i%len(lkeys)] }
	r.set("kvstore.rpush_lpop.ns", t.measure("kvstore.rpush_lpop", n/4, a.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := store.RPush(hd, lkey(i), sets.val(i)); err != nil {
				failed++
			}
			if _, ok, err := store.LPop(hd, lkey(i)); err != nil || !ok {
				failed++
			}
		}
	}).ns)

	// TTLs, on a clock the benchmark owns: set a deadline on the SET stream's
	// keys, read them back, then step past every deadline and reclaim.
	now := int64(1_000_000)
	store.SetClock(func() int64 { return now })
	r.set("kvstore.set_ttl.ns", t.measure("kvstore.set_ttl", n/4, a.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !store.SetBytesExpire(hd, sets.key(i), sets.val(i), now+1000+int64(i%1000)) {
				failed++
			}
		}
	}).ns)
	r.set("kvstore.get_ttl.ns", t.measure("kvstore.get_ttl", n/4, a.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, ok, _ := store.GetBytes(sets.key(i))
			checkGet(v, ok, sets.ops[i].id)
		}
	}).ns)
	now += 10_000
	ttld := int(store.Stats().TTLd)
	reclaimed := 0
	r.set("kvstore.reclaim_expired.ns", t.measure("kvstore.reclaim_expired", ttld, a.Region(), func(lo, hi int) {
		reclaimed += store.ReclaimExpired(hd, hi-lo)
	}).ns)
	if reclaimed != ttld {
		failed++
	}
	r.tally.ops += uint64(del + 4*(n/4) + n/4 + ttld)

	// The bounded store: the same streams with the LRU index in the path and
	// a budget of about half the records, so SETs evict.
	bound := uint64(sc.cacheBoundMB) << 20
	_, ba, bhd, err := openHeap(sc.smallHeapMB)
	if err != nil {
		return err
	}
	bstore, broot := kvstore.OpenBounded(ba, bhd, sc.buckets, bound)
	if err := loadRecords(sc.records, func(k, v []byte) bool { return bstore.SetBytes(bhd, k, v) }); err != nil {
		return err
	}
	gb := t.measure("kvstore.get_bounded", n, ba.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v, ok, _ := bstore.GetBytes(gets.key(i)); ok {
				checkGet(v, ok, gets.ops[i].id)
			}
		}
	})
	r.set("kvstore.get_bounded.ns", gb.ns)
	r.set("kvstore.get_bounded.allocs", gb.allocs)
	r.set("kvstore.set_evict.ns", t.measure("kvstore.set_evict", n, ba.Region(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !bstore.SetBytes(bhd, sets.key(i), sets.val(i)) {
				failed++
			}
		}
	}).ns)
	r.set("kvstore.attach_bounded.ms", t.measure("kvstore.attach_bounded", 1, ba.Region(), func(int, int) {
		bstore = kvstore.AttachBounded(ba, broot, bound)
	}).ns/1e6)
	r.tally.ops += uint64(2 * n)
	r.tally.failed += uint64(failed)
	return nil
}
