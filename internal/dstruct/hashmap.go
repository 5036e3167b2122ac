package dstruct

import (
	"sync"

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
// after.
type HashMap struct {
	a alloc.Allocator
	r *pmem.Region
	// hdr block: word 0 = bucket-array block offset, word 1 = nBuckets,
	// word 2 = count.
	hdr     uint64
	buckets uint64
	nB      uint64

	stripes [64]sync.Mutex
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
	return &HashMap{a: a, r: r, hdr: hdr, buckets: arr, nB: n}, hdr
}

// AttachHashMap re-attaches to a map whose header is at hdr.
func AttachHashMap(a alloc.Allocator, hdr uint64) *HashMap {
	r := a.Region()
	arr, ok := pptr.Unpack(hdr, r.Load(hdr))
	if !ok {
		panic("dstruct: hashmap header corrupt")
	}
	return &HashMap{a: a, r: r, hdr: hdr, buckets: arr, nB: r.Load(hdr + 8)}
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
	h := fnv1a(key)
	i := h & (m.nB - 1)
	// The stripe is derived from the bucket index, not the full hash: with
	// fewer than 64 buckets, two keys in the same bucket could otherwise
	// hash to different stripes and mutate the same chain concurrently.
	return m.buckets + i*8, &m.stripes[i%uint64(len(m.stripes))]
}

// stripeFor returns the lock guarding bucket i's chain.
func (m *HashMap) stripeFor(i uint64) *sync.Mutex {
	return &m.stripes[i%uint64(len(m.stripes))]
}

// nodeKey reads the key bytes of the node at off.
func (m *HashMap) nodeKey(off uint64) []byte {
	_, klen, _ := unpackLens(m.r.Load(off + 8))
	key := make([]byte, klen)
	m.r.ReadBytes(off+hmNodeHdr, key)
	return key
}

func (m *HashMap) nodeValue(off uint64) []byte {
	_, klen, vlen := unpackLens(m.r.Load(off + 8))
	val := make([]byte, vlen)
	m.r.ReadBytes(off+hmNodeHdr+pad8(klen), val)
	return val
}

// nodeTag reads the node's type tag.
func (m *HashMap) nodeTag(off uint64) uint8 { return uint8(m.r.Load(off+8) >> tagShift) }

// nodePayloadOff is the byte offset of the node's value area (for object
// records: the off-holder to the secondary structure header).
func (m *HashMap) nodePayloadOff(off uint64) uint64 {
	_, klen, _ := unpackLens(m.r.Load(off + 8))
	return off + hmNodeHdr + pad8(klen)
}

// nodeObjHdr resolves an object node's secondary-structure header offset.
func (m *HashMap) nodeObjHdr(off uint64) (uint64, bool) {
	p := m.nodePayloadOff(off)
	return pptr.Unpack(p, m.r.Load(p))
}

// nodeExpire reads the node's expiry stamp (0 = immortal).
func (m *HashMap) nodeExpire(off uint64) uint64 { return m.r.Load(off + 16) }

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get returns the value stored under key.
func (m *HashMap) Get(key []byte) ([]byte, bool) {
	v, _, ok := m.GetExpire(key)
	return v, ok
}

// GetExpire returns the value stored under key together with its expiry
// stamp (unix milliseconds; 0 = immortal). The map itself never interprets
// the stamp — lazy-expiry policy lives in the caller (kvstore) — so a record
// past its deadline is still returned here. For object records the returned
// value is the raw 8-byte payload; callers that must distinguish use
// GetTyped.
func (m *HashMap) GetExpire(key []byte) (value []byte, expireAt uint64, ok bool) {
	v, at, _, ok := m.GetTyped(key)
	return v, at, ok
}

// GetTyped is GetExpire returning the record's type tag too — the kvstore
// read path branches on it (string fast path versus WRONGTYPE) with no
// extra loads: the tag shares the lengths word every read decodes anyway.
func (m *HashMap) GetTyped(key []byte) (value []byte, expireAt uint64, tag uint8, ok bool) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	off, _ := pptr.Unpack(bucket, m.r.Load(bucket))
	for off != 0 {
		if bytesEqual(m.nodeKey(off), key) {
			return m.nodeValue(off), m.nodeExpire(off), m.nodeTag(off), true
		}
		off, _ = pptr.Unpack(off, m.r.Load(off))
	}
	return nil, 0, TagString, false
}

// Set inserts or replaces key→value with no expiry (replacing also clears
// any previous expiry, Redis SET-style). See SetExpire.
func (m *HashMap) Set(h alloc.Handle, key, value []byte) bool {
	return m.SetExpire(h, key, value, 0)
}

// SetExpire inserts or replaces key→value with an expiry stamp (unix
// milliseconds; 0 = immortal). A replace allocates the new node, swings the
// links durably, and frees the old node — the alloc/free churn that makes
// YCSB workload A allocator-bound. The stamp is flushed with the rest of the
// node before the link swing, so a record is never durably linked without
// its expiration metadata. ok=false reports exhaustion.
func (m *HashMap) SetExpire(h alloc.Handle, key, value []byte, expireAt uint64) bool {
	if len(key) > MaxKeyLen {
		return false
	}
	r := m.r
	size := hmNodeHdr + pad8(uint64(len(key))) + pad8(uint64(len(value)))
	n := h.Malloc(size)
	if n == 0 {
		return false
	}
	r.Store(n+8, packLens(TagString, uint64(len(key)), uint64(len(value))))
	r.Store(n+16, expireAt)
	r.WriteBytes(n+hmNodeHdr, key)
	r.WriteBytes(n+hmNodeHdr+pad8(uint64(len(key))), value)

	bucket, mu := m.slot(key)
	mu.Lock()
	// Find predecessor of any existing node for key.
	prev := bucket
	off, _ := pptr.Unpack(bucket, r.Load(bucket))
	var old uint64
	for off != 0 {
		if bytesEqual(m.nodeKey(off), key) {
			old = off
			break
		}
		prev = off
		off, _ = pptr.Unpack(off, r.Load(off))
	}
	// New node takes over the successor of the node it replaces (or the
	// whole chain on fresh insert).
	var next uint64
	if old != 0 {
		next, _ = pptr.Unpack(old, r.Load(old))
	} else {
		next, _ = pptr.Unpack(bucket, r.Load(bucket))
		prev = bucket
	}
	if next == 0 {
		r.Store(n, pptr.Nil)
	} else {
		r.Store(n, pptr.Pack(n, next))
	}
	r.FlushRange(n, size)
	r.Fence()
	//pmem:publish
	r.Store(prev, pptr.Pack(prev, n))
	r.Flush(prev)
	r.Fence()
	if old != 0 {
		// A SET over an object record (Redis semantics: SET overwrites any
		// type) must release the whole secondary structure, not just the
		// top node — the old graph became unreachable at the link swing, so
		// freeing it afterwards is crash-safe (a crash mid-free leaves
		// unreachable blocks for recovery GC).
		m.freeObjectGraph(h, old)
		h.Free(old)
	} else {
		// Add, not load+store: the count word is shared across stripes.
		r.Add(m.hdr+16, 1)
		r.Flush(m.hdr + 16)
	}
	mu.Unlock()
	return true
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
	off, _ := pptr.Unpack(bucket, r.Load(bucket))
	for off != 0 {
		if bytesEqual(m.nodeKey(off), key) {
			prev = m.nodeExpire(off)
			if prev != 0 && prev <= now {
				return prev, false // already expired: dead, not updatable
			}
			r.Store(off+16, expireAt)
			r.Flush(off + 16)
			r.Fence()
			return prev, true
		}
		off, _ = pptr.Unpack(off, r.Load(off))
	}
	return 0, false
}

// DeleteExpired removes key only if its record carries an expiry stamp that
// has passed relative to now. The check and the unlink happen under the
// stripe lock, so a concurrent PERSIST or re-SET (which installs a fresh
// node) can never have its key swept out from under it.
func (m *HashMap) DeleteExpired(h alloc.Handle, key []byte, now uint64) bool {
	r := m.r
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	prev := bucket
	off, _ := pptr.Unpack(bucket, r.Load(bucket))
	for off != 0 {
		next, _ := pptr.Unpack(off, r.Load(off))
		if bytesEqual(m.nodeKey(off), key) {
			at := m.nodeExpire(off)
			if at == 0 || at > now {
				return false // immortal or still live
			}
			if next == 0 {
				r.Store(prev, pptr.Nil)
			} else {
				r.Store(prev, pptr.Pack(prev, next))
			}
			r.Flush(prev)
			r.Fence()
			m.freeObjectGraph(h, off)
			h.Free(off)
			r.Add(m.hdr+16, ^uint64(0))
			r.Flush(m.hdr + 16)
			return true
		}
		prev = off
		off = next
	}
	return false
}

// Delete removes key, reporting whether it was present.
func (m *HashMap) Delete(h alloc.Handle, key []byte) bool {
	r := m.r
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	prev := bucket
	off, _ := pptr.Unpack(bucket, r.Load(bucket))
	for off != 0 {
		next, _ := pptr.Unpack(off, r.Load(off))
		if bytesEqual(m.nodeKey(off), key) {
			if next == 0 {
				r.Store(prev, pptr.Nil)
			} else {
				r.Store(prev, pptr.Pack(prev, next))
			}
			r.Flush(prev)
			r.Fence()
			m.freeObjectGraph(h, off)
			h.Free(off)
			r.Add(m.hdr+16, ^uint64(0))
			r.Flush(m.hdr + 16)
			return true
		}
		prev = off
		off = next
	}
	return false
}

// Len returns the number of keys.
func (m *HashMap) Len() int { return int(m.r.Load(m.hdr + 16)) }

// Range calls fn for every key/value pair until fn returns false. Each
// bucket's chain is walked under its stripe lock, so fn observes consistent
// records but must not call back into the map (use two passes to mutate:
// collect keys, then Set/Delete them). Concurrent writers may insert or
// remove records in buckets the walk has already passed.
func (m *HashMap) Range(fn func(key, value []byte) bool) {
	m.RangeExpire(func(key, value []byte, _ uint64) bool { return fn(key, value) })
}

// RangeExpire is Range with each record's expiry stamp (unix milliseconds;
// 0 = immortal) included — the walk AttachBounded uses to rebuild both the
// LRU byte accounting and the volatile expiry index in one pass.
func (m *HashMap) RangeExpire(fn func(key, value []byte, expireAt uint64) bool) {
	for i := uint64(0); i < m.nB; i++ {
		mu := m.stripeFor(i)
		mu.Lock()
		slot := m.buckets + i*8
		off, _ := pptr.Unpack(slot, m.r.Load(slot))
		for off != 0 {
			if !fn(m.nodeKey(off), m.nodeValue(off), m.nodeExpire(off)) {
				mu.Unlock()
				return
			}
			off, _ = pptr.Unpack(off, m.r.Load(off))
		}
		mu.Unlock()
	}
}

// RangeMeta calls fn for every record — including expired ones — with its
// type tag, expiry stamp, and the record's total persistent footprint (top
// node plus, for object records, the whole secondary-structure graph as
// maintained in the object header's bytes word). This is the one-pass walk
// Attach/AttachBounded use to rebuild the LRU byte accounting and the
// volatile expiry index per-type after a restart.
func (m *HashMap) RangeMeta(fn func(key []byte, tag uint8, expireAt uint64, bytes uint64) bool) {
	for i := uint64(0); i < m.nB; i++ {
		mu := m.stripeFor(i)
		mu.Lock()
		slot := m.buckets + i*8
		off, _ := pptr.Unpack(slot, m.r.Load(slot))
		for off != 0 {
			tag, klen, vlen := unpackLens(m.r.Load(off + 8))
			total := hmNodeHdr + pad8(klen) + pad8(vlen)
			if tag != TagString {
				if hdr, ok := m.nodeObjHdr(off); ok {
					total += m.r.Load(hdr + objOffBytes)
				}
			}
			if !fn(m.nodeKey(off), tag, m.nodeExpire(off), total) {
				mu.Unlock()
				return
			}
			off, _ = pptr.Unpack(off, m.r.Load(off))
		}
		mu.Unlock()
	}
}

// Buckets returns the bucket count, the coordinate space for cursor walks.
func (m *HashMap) Buckets() uint64 { return m.nB }

// RangeBucketMeta walks one bucket's chain under its stripe lock, calling
// fn for every record — expired ones included — with its type tag and
// expiry stamp. Cursor-based SCAN is built on this: a caller that walks
// buckets [cursor, n) in order visits every key that existed for the whole
// iteration exactly once, because a record never migrates between buckets
// (the bucket count is fixed at construction).
func (m *HashMap) RangeBucketMeta(b uint64, fn func(key []byte, tag uint8, expireAt uint64)) {
	if b >= m.nB {
		return
	}
	mu := m.stripeFor(b)
	mu.Lock()
	slot := m.buckets + b*8
	off, _ := pptr.Unpack(slot, m.r.Load(slot))
	for off != 0 {
		fn(m.nodeKey(off), m.nodeTag(off), m.nodeExpire(off))
		off, _ = pptr.Unpack(off, m.r.Load(off))
	}
	mu.Unlock()
}

// Filter returns the GC filter for the map header (bucket array → chains).
func (m *HashMap) Filter() ralloc.Filter { return HashMapFilter(m.r) }

// HashMapFilter builds the filter from a bare region. Precision matters for
// object records: a list node's prev word may be stale after a crash (the
// forward chain is the authoritative structure — see object.go), so the
// filter traces only next links and the object payload; conservative
// scanning could resurrect an unlinked node through a stale prev pointer.
func HashMapFilter(r *pmem.Region) ralloc.Filter {
	// Field nodes and list nodes both chain through word 0 and carry no
	// further pointers the GC should honor.
	var chainNode ralloc.Filter
	chainNode = func(g *ralloc.GC, off uint64) {
		if next, ok := pptr.Unpack(off, r.Load(off)); ok {
			g.Visit(next, chainNode)
		}
	}
	hashObj := func(g *ralloc.GC, hdr uint64) {
		arr, ok := pptr.Unpack(hdr, r.Load(hdr))
		if !ok {
			return
		}
		nB := r.Load(hdr + 8)
		g.Visit(arr, func(g *ralloc.GC, arrOff uint64) {
			for i := uint64(0); i < nB; i++ {
				slot := arrOff + i*8
				if head, ok := pptr.Unpack(slot, r.Load(slot)); ok {
					g.Visit(head, chainNode)
				}
			}
		})
	}
	listObj := func(g *ralloc.GC, hdr uint64) {
		// Forward chain only: tail and prev words are repairable hints.
		if head, ok := pptr.Unpack(hdr, r.Load(hdr)); ok {
			g.Visit(head, chainNode)
		}
	}
	var node ralloc.Filter
	node = func(g *ralloc.GC, off uint64) {
		if next, ok := pptr.Unpack(off, r.Load(off)); ok {
			g.Visit(next, node)
		}
		tag, klen, _ := unpackLens(r.Load(off + 8))
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
	return func(g *ralloc.GC, hdr uint64) {
		arr, ok := pptr.Unpack(hdr, r.Load(hdr))
		if !ok {
			return
		}
		nB := r.Load(hdr + 8)
		g.Visit(arr, func(g *ralloc.GC, arrOff uint64) {
			for i := uint64(0); i < nB; i++ {
				slot := arrOff + i*8
				if head, ok := pptr.Unpack(slot, r.Load(slot)); ok {
					g.Visit(head, node)
				}
			}
		})
	}
}
