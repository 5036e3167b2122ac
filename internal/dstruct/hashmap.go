package dstruct

import (
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/pptr"
	"repro/internal/ralloc"
)

// HashMap is a persistent chained hash table with byte-string keys and
// values — the storage engine of the memcached-as-a-library application
// (§6.3). Bucket heads and node links are off-holders, so the map is fully
// traceable by conservative GC; a precise filter is provided anyway.
//
// Concurrency uses striped locks (transient, like memcached's): writers to
// the same bucket stripe serialize; updates are durably linearized by
// flushing the new node before the bucket link swing and flushing the link
// after. The record path has one of each mechanism — find, publish, unlink,
// walk and the Record view below — shared with the per-object field chains
// of object.go. The count word (Len) is bookkeeping, not a commit point:
// Recovery recounts it after a crash.
//
// Beside the persistent buckets the map keeps volatile bitmaps, one bit a
// bucket and pointer-free: ttl marks a bucket that may hold a stamped record
// (set under its stripe lock when a stamp is written, cleared only by
// Expired), and — only once TrackRecency has run — ref and put mark a bucket
// referenced and written since the CLOCK hand (Evict) took the mark. None
// survives a restart: Recovery derives ttl, and ref and put start clear, like
// memcached's cold LRU.
type HashMap struct {
	a alloc.Allocator
	r *pmem.Region
	// hdr block: word 0 = bucket-array block offset, word 1 = nBuckets,
	// word 2 = count.
	hdr     uint64
	buckets uint64
	nB      uint64

	stripes       [64]sync.Mutex
	ttl, ref, put bits
}

// bits is a volatile bitmap, one bit a bucket. A bit's word is shared with
// 63 buckets of other stripes, so every change is an atomic Or or And.
type bits []atomic.Uint64

// set sets bit i with no write when it is set already: a hot bucket's word
// stays shared in every core's cache.
func (b bits) set(i uint64) {
	if w, bit := &b[i/64], uint64(1)<<(i%64); w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// clear clears bit i, reporting whether it was set. And's result goes
// unused: for a used one, go1.24.0's amd64 code clobbers a live register.
func (b bits) clear(i uint64) bool {
	w, bit := &b[i/64], uint64(1)<<(i%64)
	if w.Load()&bit == 0 {
		return false
	}
	w.And(^bit)
	return true
}

// Node layout: word 0 = next (off-holder), word 1 = tag<<61 | klen<<32 |
// vlen, word 2 = expireAt (unix milliseconds; 0 = immortal), then key bytes,
// then value bytes (each padded to 8). The expiry stamp lives in the same
// allocation as the record, so one GC pass over the chains recovers both the
// data and the expiration metadata — there is no separate TTL log to replay.
//
// The type tag occupies the top three bits of the lengths word. For
// TagHash and TagList records the "value" is a fixed 8-byte payload holding
// one off-holder to the secondary structure's header (object.go); vlen is 8.
const hmNodeHdr = 24

// Value type tags (node lens word, bits 63..61).
const (
	// TagString marks a plain byte-string record (the zero value).
	TagString = uint8(0)
	// TagHash marks a record whose payload points at a persistent field
	// hash (hashObj in object.go).
	TagHash = uint8(1)
	// TagList marks a record whose payload points at a persistent
	// doubly-linked deque (listObj in object.go).
	TagList = uint8(2)

	tagShift = 61
	// klenMask bounds key length to 29 bits (512 MB) now that the tag
	// borrows the top of the old 32-bit key-length field.
	klenMask = (uint64(1) << 29) - 1
)

// MaxKeyLen is the longest key a record can carry (the tag stole the top
// bits of the key-length field).
const MaxKeyLen = int(klenMask)

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

func packLens(tag uint8, klen, vlen uint64) uint64 {
	return uint64(tag)<<tagShift | klen<<32 | vlen
}

func unpackLens(lens uint64) (tag uint8, klen, vlen uint64) {
	return uint8(lens >> tagShift), lens >> 32 & klenMask, lens & 0xFFFFFFFF
}

// NewHashMap allocates a map with nBuckets (rounded up to a power of two),
// returning it and the header offset for root registration.
func NewHashMap(a alloc.Allocator, h alloc.Handle, nBuckets int) (*HashMap, uint64) {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n <<= 1
	}
	hdr := h.Malloc(24)
	arr := h.Malloc(n * 8)
	if hdr == 0 || arr == 0 {
		panic("dstruct: out of memory creating hashmap")
	}
	r := a.Region()
	r.Zero(arr, n*8)
	r.FlushRange(arr, n*8)
	r.Store(hdr, pptr.Pack(hdr, arr))
	r.Store(hdr+8, n)
	r.Store(hdr+16, 0)
	r.FlushRange(hdr, 24)
	r.Fence()
	return newMap(a, hdr, arr, n), hdr
}

func newMap(a alloc.Allocator, hdr, arr, nB uint64) *HashMap {
	return &HashMap{a: a, r: a.Region(), hdr: hdr, buckets: arr, nB: nB, ttl: make(bits, (nB+63)/64)}
}

// TrackRecency gives the map its marks for Evict: from then on a lookup that
// finds its key marks the key's bucket referenced, and a write marks it
// referenced and written. Call it before the map is shared.
func (m *HashMap) TrackRecency() { m.ref, m.put = make(bits, len(m.ttl)), make(bits, len(m.ttl)) }

// touch marks the bucket at slot referenced, and written if put, when the map
// tracks recency.
func (m *HashMap) touch(slot uint64, put bool) {
	if m.ref != nil {
		m.ref.set((slot - m.buckets) / 8)
		if put {
			m.put.set((slot - m.buckets) / 8)
		}
	}
}

// AttachHashMap re-attaches to a map whose header is at hdr. The header comes
// from an image, so it is checked before anything indexes with it: a bucket
// count that is zero or not a power of two would turn the hash mask into an
// out-of-array index (or hide keys), and one larger than the region would
// put the first lookup outside it — fail here, at startup, not mid-traffic.
func AttachHashMap(a alloc.Allocator, hdr uint64) *HashMap {
	r := a.Region()
	arr, ok := pptr.Unpack(hdr, r.Load(hdr))
	nB := r.Load(hdr + 8)
	if !ok || nB == 0 || nB&(nB-1) != 0 || arr >= r.Size() || nB > (r.Size()-arr)/8 {
		panic("dstruct: hashmap header corrupt")
	}
	return newMap(a, hdr, arr, nB)
}

// fnv1a hashes key bytes.
func fnv1a(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

func (m *HashMap) slot(key []byte) (bucketOff uint64, stripe *sync.Mutex) {
	i := fnv1a(key) & (m.nB - 1)
	return m.buckets + i*8, m.stripeFor(i)
}

// stripeFor returns the lock guarding bucket i's chain. The stripe is
// derived from the bucket index, not the full hash: with fewer than 64
// buckets, two keys in the same bucket could otherwise hash to different
// stripes and mutate the same chain concurrently.
func (m *HashMap) stripeFor(i uint64) *sync.Mutex {
	return &m.stripes[i%uint64(len(m.stripes))]
}

// The record path. Every keyed chain — a top-level bucket chain of records
// (node header hmNodeHdr) and an object's bucket chain of fields (fldNodeHdr,
// object.go) — is a singly linked list of nodes whose word 0 is the next
// off-holder, whose word 1 carries the key length at bits 32..60, and whose
// key bytes follow the header. One find, one publish and one unlink serve
// both; walk sweeps a whole bucket array of either kind.

// deref resolves the off-holder stored at holder (0 for nil).
func (m *HashMap) deref(holder uint64) uint64 {
	off, _ := pptr.Unpack(holder, m.r.Load(holder))
	return off
}

// ptrTo is the off-holder to store at holder so that it points at target.
func ptrTo(holder, target uint64) uint64 {
	if target == 0 {
		return pptr.Nil
	}
	return pptr.Pack(holder, target)
}

// find locates key in the chain hanging off slot, comparing keys in place.
// It returns the holder of the link pointing at the node and the node's
// offset (0 if absent). The caller holds the chain's stripe lock.
func (m *HashMap) find(slot uint64, key []byte, nodeHdr uint64) (prev, off uint64) {
	r := m.r
	prev, off = slot, m.deref(slot)
	for off != 0 {
		if r.Load(off+8)>>32&klenMask == uint64(len(key)) && r.EqualBytes(off+nodeHdr, key) {
			return prev, off
		}
		prev, off = off, m.deref(off)
	}
	return prev, 0
}

// publish makes the fully written node n (size bytes) durably reachable with
// one word: it takes the place of old, the node prev links to, or — old == 0,
// a new key — becomes the head of slot's chain. The node is flushed and
// fenced before the swing, the swing after: a crash leaves the chain with
// all of n or none of it. This is the only commit point of keyed chains.
func (m *HashMap) publish(slot, prev, old, n, size uint64) {
	r := m.r
	if old == 0 {
		prev, old = slot, slot
	}
	r.Store(n, ptrTo(n, m.deref(old)))
	r.FlushRange(n, size)
	r.Fence()
	//pmem:publish
	r.Store(prev, pptr.Pack(prev, n))
	r.Flush(prev)
	r.Fence()
}

// unlink durably removes the node at off from its chain (prev holds the
// link to it). The one-word swing is the commit; whatever the caller frees
// afterwards is unreachable, which is exactly what recovery GC reclaims.
func (m *HashMap) unlink(prev, off uint64) {
	r := m.r
	r.Store(prev, ptrTo(prev, m.deref(off)))
	r.Flush(prev)
	r.Fence()
}

// walk calls fn with every node chained off buckets [from, to) of the bucket
// array at arr until fn returns false. A node's successor is read before fn
// runs, so fn may free the node. Top-level buckets are visited under their
// stripe lock; an object's buckets belong to its key, whose stripe the
// caller already holds.
func (m *HashMap) walk(arr, from, to uint64, fn func(off uint64) bool) {
	for i, more := from, true; i < to && more; i++ {
		var mu *sync.Mutex
		if arr == m.buckets {
			mu = m.stripeFor(i)
			mu.Lock()
		}
		for off := m.deref(arr + i*8); off != 0 && more; {
			next := m.deref(off)
			more = fn(off)
			off = next
		}
		if mu != nil {
			mu.Unlock()
		}
	}
}

// Record is a view of one top-level record. Tag and ExpireAt (unix
// milliseconds; 0 = immortal) are copies; Key, Value and Bytes read the
// record itself and are valid only while its stripe lock is held — inside
// the View or Range callback that handed the Record out. The map
// never interprets the stamp: expiry policy lives in the caller (kvstore),
// so records past their deadline are handed out like any other.
type Record struct {
	Tag      uint8
	ExpireAt uint64

	m         *HashMap
	off, lens uint64
}

func (m *HashMap) record(off uint64) Record {
	lens := m.r.Load(off + 8)
	return Record{Tag: uint8(lens >> tagShift), ExpireAt: m.r.Load(off + 16), m: m, off: off, lens: lens}
}

// Key returns a copy of the record's key.
func (rec Record) Key() []byte {
	_, klen, _ := unpackLens(rec.m.r.Load(rec.off + 8))
	key := make([]byte, klen)
	rec.m.r.ReadBytes(rec.off+hmNodeHdr, key)
	return key
}

// Value returns a copy of the record's value; for an object record that is
// the raw 8-byte payload, never a client value.
func (rec Record) Value() []byte { return rec.AppendValue(nil) }

// AppendValue appends the record's value to dst, for a caller with a buffer.
func (rec Record) AppendValue(dst []byte) []byte {
	_, klen, vlen := unpackLens(rec.m.r.Load(rec.off + 8))
	n := len(dst)
	if need := n + int(vlen); dst == nil || need > cap(dst) {
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = dst[:n+int(vlen)]
	rec.m.r.ReadBytes(rec.off+hmNodeHdr+pad8(klen), dst[n:])
	return dst
}

// Bytes returns the record's total persistent footprint: the top node plus,
// for an object record, the whole secondary structure as kept in the object
// header's graph-bytes word: what a Delta counts.
func (rec Record) Bytes() uint64 {
	m := rec.m
	_, klen, vlen := unpackLens(rec.lens)
	total := RecordSize(klen, vlen)
	if rec.Tag != TagString {
		if hdr := m.objHdr(rec.off); hdr != 0 {
			total += m.r.Load(hdr + objOffBytes)
		}
	}
	return total
}

// RecordSize is the size of the node holding a record with a key of klen
// bytes and a value of vlen bytes (8 for an object record's payload).
func RecordSize(klen, vlen uint64) uint64 { return hmNodeHdr + pad8(klen) + pad8(vlen) }

// expired reports whether a stamp had passed at now (0 never passes).
func expired(at, now uint64) bool { return at != 0 && at <= now }

// Delta is what one write changed in the map's totals, computed under the
// key's stripe lock: the footprint (Record.Bytes) of its records and how many
// of them carry a stamp. Both are two's complement, so the deltas of all
// writes, summed in any order, are the totals exactly.
type Delta struct{ Bytes, Stamped uint64 }

// add counts a record of size bytes and stamp at in; sub counts one out.
func (d *Delta) add(size, at uint64) {
	d.Bytes += size
	if at != 0 {
		d.Stamped++
	}
}

func (d *Delta) sub(size, at uint64) {
	d.Bytes -= size
	if at != 0 {
		d.Stamped--
	}
}

// View calls fn with key's record under its stripe lock, reporting whether
// the key was present — the one locked lookup every reader is built on.
func (m *HashMap) View(key []byte, fn func(Record)) bool {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, off := m.find(bucket, key, hmNodeHdr)
	if off != 0 {
		m.touch(bucket, false)
		fn(m.record(off))
	}
	return off != 0
}

// Get returns the value stored under key.
func (m *HashMap) Get(key []byte) (val []byte, ok bool) {
	ok = m.View(key, func(rec Record) { val = rec.Value() })
	return val, ok
}

// newNode allocates a record node and writes everything but its link and its
// value: lengths and tag, stamp, key. It returns the node, the offset of its
// value area and its size; n == 0 reports exhaustion.
func (m *HashMap) newNode(h alloc.Handle, key []byte, tag uint8, vlen, expireAt uint64) (n, val, size uint64) {
	klen := uint64(len(key))
	size = RecordSize(klen, vlen)
	if n = h.Malloc(size); n == 0 {
		return 0, 0, 0
	}
	m.r.Store(n+8, packLens(tag, klen, vlen))
	m.r.Store(n+16, expireAt)
	m.r.WriteBytes(n+hmNodeHdr, key)
	return n, n + hmNodeHdr + pad8(klen), size
}

// addCount moves the map's record count. Add, not load+store: the word is
// shared across stripes. It is flushed but is not a commit point — Recovery
// recounts it.
func (m *HashMap) addCount(delta uint64) {
	m.r.Add(m.hdr+16, delta)
	m.r.Flush(m.hdr + 16)
}

// Set inserts or replaces key→value with no expiry (replacing also clears
// any previous expiry, Redis SET-style). See SetExpire.
func (m *HashMap) Set(h alloc.Handle, key, value []byte) bool {
	_, ok := m.SetExpire(h, key, value, 0)
	return ok
}

// SetExpire inserts or replaces key→value with an expiry stamp (unix
// milliseconds; 0 = immortal). A replace allocates the new node, swings the
// links durably, and frees the old node — the alloc/free churn that makes
// YCSB workload A allocator-bound. The stamp is flushed with the rest of the
// node before the link swing, so a record is never durably linked without
// its expiration metadata. ok=false reports exhaustion.
func (m *HashMap) SetExpire(h alloc.Handle, key, value []byte, expireAt uint64) (d Delta, ok bool) {
	if len(key) > MaxKeyLen {
		return d, false
	}
	n, val, size := m.newNode(h, key, TagString, uint64(len(value)), expireAt)
	if n == 0 {
		return d, false
	}
	m.r.WriteBytes(val, value)
	d.add(size, expireAt)

	bucket, mu := m.slot(key)
	mu.Lock()
	prev, old := m.find(bucket, key, hmNodeHdr)
	m.publish(bucket, prev, old, n, size)
	m.mark(bucket, expireAt)
	if old != 0 {
		// A SET over an object record (Redis semantics: SET overwrites any
		// type) must release the whole secondary structure, not just the
		// top node — the old graph became unreachable at the link swing, so
		// freeing it afterwards is crash-safe (a crash mid-free leaves
		// unreachable blocks for recovery GC).
		d = m.release(h, old, d)
	} else {
		m.addCount(1)
	}
	mu.Unlock()
	return d, true
}

// mark records a write to the bucket at slot that left a record stamped at:
// the bucket is written, and holds a stamp if at is one.
func (m *HashMap) mark(slot, at uint64) {
	m.touch(slot, true)
	if at != 0 {
		m.ttl.set((slot - m.buckets) / 8)
	}
}

// UpdateExpire atomically rewrites key's expiry stamp in place (0 clears
// it), returning the previous stamp and whether the record was found *live*:
// a record already past its deadline relative to now is treated as missing,
// so an EXPIRE/PERSIST racing lazy expiry can never resurrect a dead key.
// The stamp is a single word, so a crash leaves either the old or the new
// deadline — never a torn one — and the word is fenced before return, making
// an acknowledged expiry durable.
func (m *HashMap) UpdateExpire(key []byte, expireAt, now uint64) (prev uint64, ok bool) {
	r := m.r
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, off := m.find(bucket, key, hmNodeHdr)
	if off == 0 {
		return 0, false
	}
	if prev = r.Load(off + 16); expired(prev, now) {
		return prev, false // dead, not updatable
	}
	r.Store(off+16, expireAt)
	r.Flush(off + 16)
	r.Fence()
	m.mark(bucket, expireAt)
	return prev, true
}

// release frees the unreachable record at off with its whole graph and
// returns d less the record. Caller holds the stripe lock.
func (m *HashMap) release(h alloc.Handle, off uint64, d Delta) Delta {
	rec := m.record(off)
	d.sub(rec.Bytes(), rec.ExpireAt)
	m.freeObjectGraph(h, off, rec.Tag)
	h.Free(off)
	return d
}

// drop durably unlinks the record at off (prev holds the link to it) and
// releases it. Caller holds the stripe lock.
func (m *HashMap) drop(h alloc.Handle, prev, off uint64, d Delta) Delta {
	m.unlink(prev, off)
	m.addCount(^uint64(0))
	return m.release(h, off, d)
}

// Remove deletes key's record and returns the stamp it carried and the
// Delta. With deadBy != 0 the removal is conditional: only a record whose
// stamp had passed at deadBy goes, and a record that stays reports its stamp
// with ok=false. Check and unlink happen under the stripe lock, so the stamp
// describes the very record removed, and a concurrent PERSIST or re-SET
// (which installs a fresh node) can never have its key swept from under it.
func (m *HashMap) Remove(h alloc.Handle, key []byte, deadBy uint64) (expireAt uint64, d Delta, ok bool) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	prev, off := m.find(bucket, key, hmNodeHdr)
	if off == 0 {
		return 0, d, false
	}
	expireAt = m.r.Load(off + 16)
	if deadBy != 0 && !expired(expireAt, deadBy) {
		return expireAt, d, false // immortal or still live
	}
	return expireAt, m.drop(h, prev, off, d), true
}

// Delete removes key, reporting whether it was present.
func (m *HashMap) Delete(h alloc.Handle, key []byte) bool {
	_, _, ok := m.Remove(h, key, 0)
	return ok
}

// Evict is one step of a CLOCK hand, at bucket b modulo the bucket count, of
// a map that tracks recency. The hand takes one mark a pass, the reference
// first: a marked bucket keeps its records, and one with neither mark loses
// one record, if it holds any, and Evict returns the Delta. So a record
// survives one pass after a read and two after a write. The second matters
// when nearly every bucket is referenced: the hand then laps fast, and a
// write made in that lap would be the next lap's victim.
func (m *HashMap) Evict(h alloc.Handle, b uint64) (d Delta, ok bool) {
	b &= m.nB - 1
	slot := m.buckets + b*8
	if m.ref.clear(b) || m.put.clear(b) || m.deref(slot) == 0 {
		return d, false
	}
	mu := m.stripeFor(b)
	mu.Lock()
	defer mu.Unlock()
	if off := m.deref(slot); off != 0 {
		return m.drop(h, slot, off, d), true
	}
	return d, false
}

// Expired walks the buckets marked as holding a stamp, from bucket from
// modulo the bucket count, for at most one lap and at most budget marked
// buckets. It returns the keys of up to max records whose stamp had passed at
// now, the bucket to resume from — the one it stopped in if that bucket holds
// due records it did not return — and how many marked buckets it visited.
// A marked bucket found to hold no stamped record is unmarked, under its
// stripe lock, so a write stamping one there cannot be missed.
func (m *HashMap) Expired(from uint64, max, budget int, now uint64) (keys [][]byte, next uint64, visited int) {
	n := uint64(0)
	for ; n < m.nB && len(keys) < max && visited < budget; n++ {
		b := (from + n) & (m.nB - 1)
		if w := m.ttl[b/64].Load() >> (b % 64); w == 0 {
			n += min(63-b%64, m.nB-1-b) // no marked bucket left in the word
			continue
		} else if w&1 == 0 {
			continue
		}
		visited++
		stamped, more := false, false
		mu := m.stripeFor(b)
		mu.Lock()
		for off := m.deref(m.buckets + b*8); off != 0; off = m.deref(off) {
			at := m.r.Load(off + 16)
			stamped = stamped || at != 0
			if !expired(at, now) {
				continue
			}
			if more = len(keys) == max; more {
				break
			}
			keys = append(keys, m.record(off).Key())
		}
		if !stamped {
			m.ttl.clear(b)
		}
		mu.Unlock()
		if more {
			return keys, b, visited
		}
	}
	return keys, (from + n) & (m.nB - 1), visited
}

// Len returns the number of keys.
func (m *HashMap) Len() int { return int(m.r.Load(m.hdr + 16)) }

// Buckets returns the bucket count, the coordinate space for cursor walks.
func (m *HashMap) Buckets() uint64 { return m.nB }

// Range calls fn for every record in buckets [from, to) — expired ones
// included — until fn returns false. Each bucket's chain is walked under its
// stripe lock, so fn observes consistent records but must not call back into
// the map (to mutate, collect keys and Set/Delete them afterwards).
// Concurrent writers may insert or remove records in buckets the walk has
// already passed. Cursor-based SCAN is built on the bucket bounds: a record
// never migrates between buckets (the count is fixed at construction), so
// walking the buckets in order visits every key that existed throughout
// exactly once.
func (m *HashMap) Range(from, to uint64, fn func(Record) bool) {
	m.walk(m.buckets, from, min(to, m.nB), func(off uint64) bool { return fn(m.record(off)) })
}

// Filter returns the GC filter for the map header (bucket array → chains).
func (m *HashMap) Filter() ralloc.Filter { return HashMapFilter(m.r, nil) }

// Filter returns the map's GC filter with the pass riding it, for exactly one
// trace before Finish; after Finish it only marks.
func (rc *Recovery) Filter() ralloc.Filter { return HashMapFilter(rc.m.r, rc.visit) }

// HashMapFilter builds the filter from a bare region. Precision matters for
// object records: a list node's prev word may be stale after a crash (the
// forward chain is the authoritative structure — see object.go), so the
// filter traces only next links and the object payload; conservative
// scanning could resurrect an unlinked node through a stale prev pointer.
//
// visit, if not nil, gets each top-level record the trace marks, once, on the
// worker scanning it, with the lengths and deadline words the filter read
// (§4.5.1: what the application knows rides the collector's pass). It must not
// store: Trace is read-only, Collect runs beside sharers. A record's header and a
// run of bucket heads each go through one LoadEach: Load's locked add serialises.
func HashMapFilter(r *pmem.Region, visit func(off, lens, expireAt uint64)) ralloc.Filter {
	// Field nodes and list nodes both chain through word 0 and carry no
	// further pointers the GC should honor.
	var chainNode ralloc.Filter
	chainNode = func(g *ralloc.GC, off uint64) {
		if next, ok := pptr.Unpack(off, r.Load(off)); ok {
			g.Visit(next, chainNode)
		}
	}
	// table scans a header: word 0 points at an array of word 1 chain heads,
	// whose nodes each scans. The array goes in instalments, the rest queued
	// beneath each one's heads: the trace's stack stays a few thousand deep.
	table := func(each ralloc.Filter) ralloc.Filter {
		return func(g *ralloc.GC, hdr uint64) {
			arr, ok := pptr.Unpack(hdr, r.Load(hdr))
			if !ok {
				return
			}
			nB := r.Load(hdr + 8)
			var buckets func(from uint64) ralloc.Filter
			buckets = func(from uint64) ralloc.Filter {
				return func(g *ralloc.GC, arrOff uint64) {
					to := min(from+4096, nB)
					if to < nB {
						g.Again(arrOff, buckets(to))
					}
					var slots, heads [64]uint64
					for slot, end := arrOff+from*8, arrOff+to*8; slot < end; {
						n := 0
						for ; n < len(slots) && slot < end; n, slot = n+1, slot+8 {
							slots[n] = slot
						}
						r.LoadEach(slots[:n], heads[:n])
						for i, head := range heads[:n] {
							if head, ok := pptr.Unpack(slots[i], head); ok {
								g.Visit(head, each)
							}
						}
					}
				}
			}
			g.Visit(arr, buckets(0))
		}
	}
	hashObj := table(chainNode)
	listObj := func(g *ralloc.GC, hdr uint64) {
		// Forward chain only: tail and prev words are repairable hints.
		if head, ok := pptr.Unpack(hdr, r.Load(hdr)); ok {
			g.Visit(head, chainNode)
		}
	}
	var node ralloc.Filter
	node = func(g *ralloc.GC, off uint64) {
		// Link, lengths, deadline: descriptors lie behind every block, so all in the region.
		offs, w := [3]uint64{off, off + 8, off + 16}, [3]uint64{}
		r.LoadEach(offs[:], w[:])
		if next, ok := pptr.Unpack(off, w[0]); ok {
			g.Visit(next, node)
		}
		if visit != nil {
			visit(off, w[1], w[2])
		}
		tag, klen, _ := unpackLens(w[1])
		if tag == TagString {
			return
		}
		p := off + hmNodeHdr + pad8(klen)
		hdr, ok := pptr.Unpack(p, r.Load(p))
		if !ok {
			return
		}
		switch tag {
		case TagHash:
			g.Visit(hdr, hashObj)
		case TagList:
			g.Visit(hdr, listObj)
		}
	}
	return table(node)
}
