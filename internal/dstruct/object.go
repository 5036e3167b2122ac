package dstruct

// Typed persistent objects: the secondary structures behind TagHash and
// TagList records. The top-level map stays the single source of truth for
// key lookup, expiry, and type; a non-string record's 8-byte payload holds
// one off-holder to an object header allocated from the same ralloc heap,
// so recovery GC traces the whole graph through the map filter and the
// allocator's recoverability criterion (§4.5) extends to every field node
// and list element.
//
// Both object kinds follow the same crash discipline as the map itself —
// flush the new block before the single-word link swing that makes it
// reachable, flush the swing, fence — with one refinement for the deque:
// only the *forward* chain (header head word, node next words) is
// authoritative. The tail word, the nodes' prev words, and the length and
// bytes counters are maintained eagerly but are repairable: a crash between
// a commit swing and the trailing bookkeeping stores leaves them stale, and
// Recovery — the one pass a restart makes over the map — fixes them, together
// with the map's own record count. This keeps every mutation's commit point
// a single 8-byte store, exactly the paper's "flush data, then swing one
// durable link" pattern, without needing a transaction log for the
// two-directional links.
//
// A hash's field chains are keyed chains like the map's own buckets, so they
// use the map's find, publish and unlink (hashmap.go). A list's header is,
// for walk, a bucket array of one whose only chain is the forward chain; its
// commit words are its own (pushOne, Pop), because which word commits
// depends on the end and on whether the list is empty.
//
// Object header layout (objHdrBytes = 32):
//
//	hash:  word 0 = bucket-array off-holder, word 1 = nBuckets,
//	       word 2 = field count, word 3 = graph bytes
//	list:  word 0 = head off-holder, word 1 = tail off-holder,
//	       word 2 = length, word 3 = graph bytes
//
// The graph-bytes word is the total persistent footprint of the secondary
// structure (header + bucket array + nodes); Record.Bytes reads it in O(1),
// so an object write's Delta is the record's footprint after less before,
// and it is repaired together with the counters.
//
// Field node: word 0 = next off-holder, word 1 = flen<<32|vlen, then field
// bytes and value bytes (each padded to 8).
// List node: word 0 = next off-holder, word 1 = prev off-holder,
// word 2 = vlen, then value bytes (padded to 8).

import (
	"cmp"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/pptr"
)

const (
	objHdrBytes = 32
	objOffBytes = 24 // graph-bytes word within an object header
	// hobjBuckets is the per-object bucket count: field sets are small
	// (YCSB-H uses tens of fields), so a fixed power of two keeps the
	// header compact; chains degrade gracefully for outliers.
	hobjBuckets = 8
	fldNodeHdr  = 16
	lstNodeHdr  = 24
)

// ErrWrongType reports an object operation applied to a record of another
// type (the server maps it to Redis's WRONGTYPE reply).
var ErrWrongType = errors.New("operation against a key holding the wrong kind of value")

// ErrNoMemory reports heap exhaustion inside an object operation.
var ErrNoMemory = errors.New("out of memory")

func fldNodeSize(flen, vlen uint64) uint64 { return fldNodeHdr + pad8(flen) + pad8(vlen) }
func lstNodeSize(vlen uint64) uint64       { return lstNodeHdr + pad8(vlen) }

// objHdr resolves an object record's secondary-structure header (0 if the
// payload holds no valid off-holder).
func (m *HashMap) objHdr(off uint64) uint64 {
	_, klen, _ := unpackLens(m.r.Load(off + 8))
	return m.deref(off + hmNodeHdr + pad8(klen))
}

// freeObjectGraph releases the secondary structure of a record of the given
// tag (no-op for strings). The record must already be unreachable.
func (m *HashMap) freeObjectGraph(h alloc.Handle, off uint64, tag uint8) {
	if tag == TagString {
		return
	}
	hdr := m.objHdr(off)
	if hdr == 0 {
		return
	}
	switch tag {
	case TagHash:
		m.freeHashObj(h, hdr)
	case TagList:
		m.freeListObj(h, hdr)
	}
}

// freeNodes releases every node chained off buckets [0, nB) of arr.
func (m *HashMap) freeNodes(h alloc.Handle, arr, nB uint64) {
	m.walk(arr, 0, nB, func(n uint64) bool { h.Free(n); return true })
}

func (m *HashMap) freeHashObj(h alloc.Handle, hdr uint64) {
	if arr := m.deref(hdr); arr != 0 {
		m.freeNodes(h, arr, m.r.Load(hdr+8))
		h.Free(arr)
	}
	h.Free(hdr)
}

// freeListObj frees the forward chain: a list header's head word is a
// bucket array of one.
func (m *HashMap) freeListObj(h alloc.Handle, hdr uint64) {
	m.freeNodes(h, hdr, 1)
	h.Free(hdr)
}

// newHashObj allocates and initializes an empty field hash (not yet
// reachable — the caller installs it behind a top-level record); 0 reports
// exhaustion.
func (m *HashMap) newHashObj(h alloc.Handle) uint64 {
	hdr := h.Malloc(objHdrBytes)
	arr := h.Malloc(hobjBuckets * 8)
	if hdr == 0 || arr == 0 {
		if hdr != 0 {
			h.Free(hdr)
		}
		if arr != 0 {
			h.Free(arr)
		}
		return 0
	}
	r := m.r
	r.Zero(arr, hobjBuckets*8)
	r.FlushRange(arr, hobjBuckets*8)
	r.Store(hdr, pptr.Pack(hdr, arr))
	r.Store(hdr+8, hobjBuckets)
	r.Store(hdr+16, 0)
	r.Store(hdr+objOffBytes, objHdrBytes+hobjBuckets*8)
	r.FlushRange(hdr, objHdrBytes)
	return hdr
}

// newListObj allocates and initializes an empty deque.
func (m *HashMap) newListObj(h alloc.Handle) uint64 {
	hdr := h.Malloc(objHdrBytes)
	if hdr == 0 {
		return 0
	}
	r := m.r
	r.Store(hdr, pptr.Nil)
	r.Store(hdr+8, pptr.Nil)
	r.Store(hdr+16, 0)
	r.Store(hdr+objOffBytes, objHdrBytes)
	r.FlushRange(hdr, objHdrBytes)
	return hdr
}

// installObject creates and durably links a top-level record of the given
// tag whose payload points at objHdr, returning the record (0: exhaustion).
// The object graph must be fully flushed already: the bucket link swing is
// the commit point that makes the whole object reachable at once. Caller
// holds the stripe lock and guarantees key is absent.
func (m *HashMap) installObject(h alloc.Handle, bucket uint64, key []byte, tag uint8, objHdr uint64) uint64 {
	n, p, size := m.newNode(h, key, tag, 8, 0)
	if n == 0 {
		return 0
	}
	m.r.Store(p, pptr.Pack(p, objHdr))
	m.publish(bucket, bucket, 0, n, size)
	m.addCount(1)
	m.mark(bucket, 0)
	return n
}

// resolveLive locates key's live record of the wanted tag, returning its
// prev holder too (for callers that may unlink it). dead reports a record
// hidden by lazy expiry — never touched here; write paths that must reap it
// go through resolveWrite. A live record's bucket is referenced. Caller holds
// the stripe lock.
func (m *HashMap) resolveLive(bucket uint64, key []byte, want uint8, now uint64) (prev, off, hdr uint64, ok, dead bool, err error) {
	prev, off = m.find(bucket, key, hmNodeHdr)
	if off == 0 {
		return prev, 0, 0, false, false, nil
	}
	rec := m.record(off)
	if expired(rec.ExpireAt, now) {
		return prev, off, 0, false, true, nil
	}
	if rec.Tag != want {
		return prev, off, 0, false, false, ErrWrongType
	}
	m.touch(bucket, false)
	return prev, off, m.objHdr(off), true, false, nil
}

// resolveWrite locates key's object for a mutation, reaping an expired
// record (of any type) in place — dead fields/elements must never resurrect
// into the new object. off and hdr are 0 when the caller must create the
// object; d is the reaping's Delta, less the live record's footprint (the
// caller adds it back after the write). Caller holds the stripe lock.
func (m *HashMap) resolveWrite(h alloc.Handle, bucket uint64, key []byte, want uint8, now uint64) (off, hdr uint64, d Delta, err error) {
	prev, off, hdr, live, dead, err := m.resolveLive(bucket, key, want, now)
	if dead {
		return 0, 0, m.drop(h, prev, off, d), nil
	}
	if live {
		d.Bytes -= m.record(off).Bytes()
	}
	return off, hdr, d, err
}

// account adjusts an object's repairable bookkeeping: its element count and
// its graph bytes (two's-complement deltas).
func (m *HashMap) account(hdr, dCount, dBytes uint64) {
	r := m.r
	if dCount != 0 {
		r.Add(hdr+16, dCount)
		r.Flush(hdr + 16)
	}
	r.Add(hdr+objOffBytes, dBytes)
	r.Flush(hdr + objOffBytes)
}

// ObjLen returns the field or element count of the object of the given tag
// at key (0 for a missing key). dead reports a record hidden by lazy expiry.
func (m *HashMap) ObjLen(key []byte, tag uint8, now uint64) (n int, dead bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, _, hdr, live, dead, err := m.resolveLive(bucket, key, tag, now)
	if !live {
		return 0, dead, err
	}
	return int(m.r.Load(hdr + 16)), false, nil
}

// ----------------------------------------------------------------------
// Hash objects.

func (m *HashMap) hSlot(hdr uint64, field []byte) uint64 {
	return m.deref(hdr) + (fnv1a(field)&(m.r.Load(hdr+8)-1))*8
}

func (m *HashMap) fldKey(off uint64) []byte {
	f := make([]byte, m.r.Load(off+8)>>32)
	m.r.ReadBytes(off+fldNodeHdr, f)
	return f
}

func (m *HashMap) fldValue(off uint64) []byte {
	lens := m.r.Load(off + 8)
	v := make([]byte, lens&0xFFFFFFFF)
	m.r.ReadBytes(off+fldNodeHdr+pad8(lens>>32), v)
	return v
}

func (m *HashMap) fldSize(off uint64) uint64 {
	lens := m.r.Load(off + 8)
	return fldNodeSize(lens>>32, lens&0xFFFFFFFF)
}

// hsetOne inserts or replaces one field — the same alloc-publish-free dance
// as the top-level SetExpire, inside the object's bucket chain.
func (m *HashMap) hsetOne(h alloc.Handle, hdr uint64, field, value []byte) (created bool, err error) {
	r := m.r
	flen, vlen := uint64(len(field)), uint64(len(value))
	size := fldNodeSize(flen, vlen)
	if flen > klenMask { // find reads 29 length bits, for fields as for keys
		return false, ErrNoMemory
	}
	n := h.Malloc(size)
	if n == 0 {
		return false, ErrNoMemory
	}
	r.Store(n+8, flen<<32|vlen)
	r.WriteBytes(n+fldNodeHdr, field)
	r.WriteBytes(n+fldNodeHdr+pad8(flen), value)

	slot := m.hSlot(hdr, field)
	prev, old := m.find(slot, field, fldNodeHdr)
	m.publish(slot, prev, old, n, size)
	if old != 0 {
		size -= m.fldSize(old)
		h.Free(old)
		m.account(hdr, 0, size)
	} else {
		m.account(hdr, 1, size)
	}
	return old == 0, nil
}

// hdelOne unlinks and frees one field, reporting whether it existed.
func (m *HashMap) hdelOne(h alloc.Handle, hdr uint64, field []byte) bool {
	prev, off := m.find(m.hSlot(hdr, field), field, fldNodeHdr)
	if off == 0 {
		return false
	}
	m.unlink(prev, off)
	size := m.fldSize(off)
	h.Free(off)
	m.account(hdr, ^uint64(0), -size)
	return true
}

// HSet inserts or replaces the given field/value pairs under key, creating
// the hash if needed (reaping an expired record first). It returns how many
// fields were newly created and the Delta, also with an error: pairs before
// the failing one committed. A fresh key's object is populated while still
// unreachable, then installed behind one durable bucket-link swing, so the
// whole HSET of a fresh key is crash-atomic; on an existing hash each pair
// commits individually with a single-word link swing, so a crash mid-HSET
// leaves every field wholly old or wholly new — never torn.
func (m *HashMap) HSet(h alloc.Handle, key []byte, pairs [][]byte, now uint64) (created int, d Delta, err error) {
	if len(key) > MaxKeyLen {
		return 0, d, ErrNoMemory
	}
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	off, hdr, d, err := m.resolveWrite(h, bucket, key, TagHash, now)
	if err != nil {
		return 0, d, err
	}
	if off == 0 {
		if hdr = m.newHashObj(h); hdr == 0 {
			return 0, d, ErrNoMemory
		}
	}
	for i := 0; i+1 < len(pairs) && err == nil; i += 2 {
		var c bool
		c, err = m.hsetOne(h, hdr, pairs[i], pairs[i+1])
		if c {
			created++
		}
	}
	if off == 0 && err == nil {
		off = m.installObject(h, bucket, key, TagHash, hdr)
	}
	if off == 0 {
		m.freeHashObj(h, hdr)
		return 0, d, cmp.Or(err, ErrNoMemory)
	}
	d.Bytes += m.record(off).Bytes()
	return created, d, err
}

// HGet returns field's value inside the hash at key. dead reports a record
// hidden by lazy expiry.
func (m *HashMap) HGet(key, field []byte, now uint64) (val []byte, ok, dead bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, _, hdr, live, dead, err := m.resolveLive(bucket, key, TagHash, now)
	if !live {
		return nil, false, dead, err
	}
	_, n := m.find(m.hSlot(hdr, field), field, fldNodeHdr)
	if n == 0 {
		return nil, false, false, nil
	}
	return m.fldValue(n), true, false, nil
}

// HDel removes the given fields, deleting the whole record when the last
// field goes (Redis drops empty hashes); gone reports that deletion.
func (m *HashMap) HDel(h alloc.Handle, key []byte, fields [][]byte, now uint64) (removed int, d Delta, gone bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	// An expired record reads as missing (removed 0); its space is left to
	// the expiry cycle rather than reclaimed on this path.
	prev, off, hdr, live, _, err := m.resolveLive(bucket, key, TagHash, now)
	if !live {
		return 0, d, false, err
	}
	before := m.record(off).Bytes()
	for _, f := range fields {
		if m.hdelOne(h, hdr, f) {
			removed++
		}
	}
	d.Bytes = m.record(off).Bytes() - before
	if m.r.Load(hdr+16) == 0 {
		return removed, m.drop(h, prev, off, d), true, nil
	}
	return removed, d, false, nil
}

// HGetAll returns every field and value (parallel slices, chain order).
func (m *HashMap) HGetAll(key []byte, now uint64) (fields, values [][]byte, dead bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, _, hdr, live, dead, err := m.resolveLive(bucket, key, TagHash, now)
	if !live {
		return nil, nil, dead, err
	}
	m.walk(m.deref(hdr), 0, m.r.Load(hdr+8), func(off uint64) bool {
		fields = append(fields, m.fldKey(off))
		values = append(values, m.fldValue(off))
		return true
	})
	return fields, values, false, nil
}

// ----------------------------------------------------------------------
// List objects.

func (m *HashMap) lstValue(off uint64) []byte {
	v := make([]byte, m.r.Load(off+16))
	m.r.ReadBytes(off+lstNodeHdr, v)
	return v
}

// pushOne appends one element at the chosen end. The commit point is a
// single word: the header's head word (left push, or first element) or the
// old tail's next word (right push). Everything after the commit — the
// neighbor's prev word, the tail word, length and bytes — is repairable
// bookkeeping. The commit words are the list's own, not publish's: which
// word commits depends on the end and on whether the list is empty, and the
// node carries a second (prev) link the keyed chains do not have.
func (m *HashMap) pushOne(h alloc.Handle, hdr uint64, val []byte, left bool) error {
	r := m.r
	vlen := uint64(len(val))
	size := lstNodeSize(vlen)
	n := h.Malloc(size)
	if n == 0 {
		return ErrNoMemory
	}
	r.Store(n+16, vlen)
	r.WriteBytes(n+lstNodeHdr, val)
	head, tail := m.deref(hdr), m.deref(hdr+8)
	// The new node's links, and the word whose swing commits it: the head
	// word for a left push or a first element, else the old tail's next.
	commit := hdr
	if left {
		r.Store(n, ptrTo(n, head))
		r.Store(n+8, pptr.Nil)
	} else {
		r.Store(n, pptr.Nil)
		r.Store(n+8, ptrTo(n+8, tail))
		if tail != 0 {
			commit = tail
		}
	}
	r.FlushRange(n, size)
	r.Fence()
	//pmem:publish
	r.Store(commit, pptr.Pack(commit, n))
	r.Flush(commit)
	r.Fence()
	if left && head != 0 {
		r.Store(head+8, pptr.Pack(head+8, n))
		r.Flush(head + 8)
	}
	if !left || tail == 0 {
		r.Store(hdr+8, pptr.Pack(hdr+8, n))
		r.Flush(hdr + 8)
	}
	m.account(hdr, 1, size)
	r.Fence()
	return nil
}

// Push appends vals at the left or right end of the list at key, creating
// it if needed (reaping an expired record first). Returns the new length
// and the Delta, also with an error: values before the failing one committed.
func (m *HashMap) Push(h alloc.Handle, key []byte, vals [][]byte, left bool, now uint64) (length int, d Delta, err error) {
	if len(key) > MaxKeyLen {
		return 0, d, ErrNoMemory
	}
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	off, hdr, d, err := m.resolveWrite(h, bucket, key, TagList, now)
	if err != nil {
		return 0, d, err
	}
	if off == 0 {
		if hdr = m.newListObj(h); hdr == 0 {
			return 0, d, ErrNoMemory
		}
	}
	for i := 0; i < len(vals) && err == nil; i++ {
		err = m.pushOne(h, hdr, vals[i], left)
	}
	if off == 0 && err == nil {
		off = m.installObject(h, bucket, key, TagList, hdr)
	}
	if off == 0 {
		m.freeListObj(h, hdr)
		return 0, d, cmp.Or(err, ErrNoMemory)
	}
	d.Bytes += m.record(off).Bytes()
	return int(m.r.Load(hdr + 16)), d, err
}

// Pop removes and returns the element at the chosen end. Popping the last
// element deletes the whole record (Redis drops empty lists); gone reports
// that. The commit point is again one word: the head word (left pop), the
// new tail's next word (right pop), or the record unlink (last element).
func (m *HashMap) Pop(h alloc.Handle, key []byte, left bool, now uint64) (val []byte, ok bool, d Delta, gone, dead bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	prev, off, hdr, live, dead, err := m.resolveLive(bucket, key, TagList, now)
	if !live {
		return nil, false, d, false, dead, err
	}
	r := m.r
	head := m.deref(hdr)
	if head == 0 {
		// Normal operation never leaves an empty list behind; treat
		// defensively as missing.
		return nil, false, d, false, false, nil
	}
	if r.Load(hdr+16) <= 1 {
		// Last element: the record unlink is the commit, and the whole
		// graph is freed behind it.
		val = m.lstValue(head)
		return val, true, m.drop(h, prev, off, d), true, false, nil
	}
	// The victim, the word whose swing commits its removal — the head word,
	// or the new tail's next word, where the forward chain now ends — and
	// the repairable back-link fixed up after it: the new head's prev word,
	// or the tail word.
	victim, commit, commitTo := head, hdr, m.deref(head)
	hint, hintTo := commitTo+8, uint64(0)
	if !left {
		victim = m.deref(hdr + 8)
		commit, commitTo = m.deref(victim+8), 0
		hint, hintTo = hdr+8, commit
	}
	//pmem:publish
	r.Store(commit, ptrTo(commit, commitTo))
	r.Flush(commit)
	r.Fence()
	r.Store(hint, ptrTo(hint, hintTo))
	r.Flush(hint)
	val = m.lstValue(victim)
	size := lstNodeSize(r.Load(victim + 16))
	h.Free(victim)
	m.account(hdr, ^uint64(0), -size)
	r.Fence()
	d.Bytes -= size
	return val, true, d, false, false, nil
}

// LRange returns the elements between start and stop inclusive, with Redis
// index semantics (negative counts from the tail; out-of-range clamps).
func (m *HashMap) LRange(key []byte, start, stop int64, now uint64) (vals [][]byte, dead bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, _, hdr, live, dead, err := m.resolveLive(bucket, key, TagList, now)
	if !live {
		return nil, dead, err
	}
	n := int64(m.r.Load(hdr + 16))
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	start, stop = max(start, 0), min(stop, n-1)
	if start > stop {
		return nil, false, nil
	}
	i := int64(0)
	m.walk(hdr, 0, 1, func(off uint64) bool {
		if i >= start && i <= stop {
			vals = append(vals, m.lstValue(off))
		}
		i++
		return i <= stop
	})
	return vals, false, nil
}

// ----------------------------------------------------------------------
// Post-crash repair.

// Recovery is the one pass a restart makes over the map's records. visit sees
// each record once and stores nothing: it counts it, and its stamp, and the
// bytes of a string, and sets an object aside. Finish does what needs stores
// and a working allocator: it repairs the words the crash discipline leaves
// repairable — list tail and prev words, both object kinds' count and
// graph-bytes words — deletes an object a crash left empty (last element
// unlinked, record not yet), counts the other objects' bytes, and rewrites
// the map's count word when it differs: bumped after the link swing that
// commits an insert or a removal, a crash between the two leaves it off by
// one, and nothing else would heal it. Two drivers: on a dirty heap the
// recovery trace (Filter, registered before heap.Recover; visit runs on the
// trace's workers), on a recovered one Walk. Nothing else may use the map
// until Finish returns.
type Recovery struct {
	m                     *HashMap
	count, bytes, stamped atomic.Uint64
	done                  atomic.Bool
	mu                    sync.Mutex
	objs                  []uint64 // object records awaiting Finish
}

// BeginRecover starts the map's recovery pass.
func (m *HashMap) BeginRecover() *Recovery { return &Recovery{m: m} }

func (rc *Recovery) visit(off, lens, expireAt uint64) {
	if rc.done.Load() {
		return
	}
	rc.count.Add(1)
	if expireAt != 0 {
		rc.stamped.Add(1)
	}
	if tag, klen, vlen := unpackLens(lens); tag == TagString {
		rc.bytes.Add(RecordSize(klen, vlen))
	} else {
		rc.mu.Lock()
		rc.objs = append(rc.objs, off)
		rc.mu.Unlock()
	}
}

// Finish completes the pass on the recovered heap and returns the totals of
// the records kept, as one Delta from empty. A stamped record marks every
// bucket for Expired: which buckets hold one, the pass did not keep.
func (rc *Recovery) Finish(h alloc.Handle) Delta {
	m := rc.m
	rc.done.Store(true)
	m.fixWord(m.hdr+16, rc.count.Load())
	d := Delta{Bytes: rc.bytes.Load(), Stamped: rc.stamped.Load()}
	for _, off := range rc.objs {
		if rec := m.record(off); m.repairObject(rec.Tag, off) {
			_, gone, _ := m.Remove(h, rec.Key(), 0)
			d.Stamped += gone.Stamped
		} else {
			d.Bytes += rec.Bytes()
		}
	}
	rc.objs = nil
	m.r.Fence()
	if d.Stamped != 0 {
		for i := range m.ttl {
			m.ttl[i].Store(^uint64(0))
		}
	}
	return d
}

// Walk drives the pass over the buckets, for a heap that is already recovered.
func (rc *Recovery) Walk() {
	r := rc.m.r
	rc.m.walk(rc.m.buckets, 0, rc.m.nB, func(off uint64) bool { rc.visit(off, r.Load(off+8), r.Load(off+16)); return true })
}

// fixWord rewrites a repairable word that does not hold want.
func (m *HashMap) fixWord(off, want uint64) {
	if m.r.Load(off) != want {
		m.r.Store(off, want)
		m.r.Flush(off)
	}
}

// repairObject repairs the object behind the record at off (nothing for a
// string) and reports whether it is empty.
func (m *HashMap) repairObject(tag uint8, off uint64) (empty bool) {
	if tag == TagString {
		return false
	}
	hdr := m.objHdr(off)
	if hdr == 0 {
		return false
	}
	if tag == TagHash {
		return m.repairHash(hdr)
	}
	return m.repairList(hdr)
}

// repairHash recomputes the field count and graph bytes from the chains.
func (m *HashMap) repairHash(hdr uint64) (empty bool) {
	arr, nB := m.deref(hdr), m.r.Load(hdr+8)
	if arr == 0 {
		return true
	}
	count, bytes := uint64(0), objHdrBytes+nB*8
	m.walk(arr, 0, nB, func(off uint64) bool {
		count++
		bytes += m.fldSize(off)
		return true
	})
	m.fixWord(hdr+16, count)
	m.fixWord(hdr+objOffBytes, bytes)
	return count == 0
}

// repairList rewalks the authoritative forward chain, fixing every node's
// prev word, the tail word, and the length and bytes words.
func (m *HashMap) repairList(hdr uint64) (empty bool) {
	count, bytes, last := uint64(0), uint64(objHdrBytes), uint64(0)
	m.walk(hdr, 0, 1, func(off uint64) bool {
		m.fixWord(off+8, ptrTo(off+8, last))
		count++
		bytes += lstNodeSize(m.r.Load(off + 16))
		last = off
		return true
	})
	m.fixWord(hdr+8, ptrTo(hdr+8, last))
	m.fixWord(hdr+16, count)
	m.fixWord(hdr+objOffBytes, bytes)
	return count == 0
}
