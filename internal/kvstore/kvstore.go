// Package kvstore is the memcached-as-a-library key-value store of the
// paper's application study (§6.3): "we modified it to function as a
// library rather than a stand-alone server: instead of sending requests
// over a socket, the client application makes direct function calls into
// the key-value code". The store keeps all data in a persistent hash map
// over a pluggable allocator, so the YCSB experiment isolates allocator
// behavior exactly as the paper's does.
//
// Records may carry an expiration deadline (a TTL, cache-style). The
// deadline is an absolute unix-millisecond stamp persisted inside the same
// allocation as the record (dstruct hash-map node word 2), so recovery
// needs no separate TTL log: attach sees every record once (dstruct's Recovery,
// riding the allocator's GC trace after a crash), repairs the objects and
// recounts the records, their bytes and their stamps — Len, the server's
// DBSIZE, is exact after a crash; and because the stamp is wall-clock
// absolute, a key that expired before a crash is still expired after
// recovery — expiration survives kill -9 for free. Every reader goes through
// one record view (dstruct.Record, under the key's stripe lock) and one
// liveness test (dead). Reads apply *lazy* expiry (a dead record is reported
// missing without being touched); space is reclaimed by ReclaimExpired, which
// the serving layer drives from its active expiry cycle.
//
// A key lives in the persistent map and nowhere else: no Go-heap index holds
// a copy. The map's volatile per-bucket bits (dstruct.HashMap) serve
// eviction — a CLOCK hand over read and write marks — and active expiry — a
// cursor over the bits of buckets holding a stamp — and every byte and stamp
// count is a dstruct.Delta computed under the key's stripe lock.
package kvstore

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/dstruct"
	"repro/internal/obs"
	"repro/internal/ralloc"
)

// Root slots of a served heap: the store's hash map, and beside it the
// serving layer's undo journal — one pointer-free block, or unset.
const (
	RootStore   = 0
	RootJournal = 1
)

// PTTL sentinels, Redis-style (milliseconds otherwise).
const (
	// TTLMissing reports a key that does not exist (or has expired).
	TTLMissing = -2
	// TTLNone reports a key that exists but carries no deadline.
	TTLNone = -1
)

// Type is the kind of value a key holds. Every record carries a type tag in
// its persistent header (dstruct node lens word), so the type survives
// crashes with the data and costs the string fast path nothing: the tag
// shares the word every read already decodes.
type Type uint8

const (
	// TypeNone reports a missing (or expired) key.
	TypeNone Type = iota
	// TypeString is a plain byte-string value.
	TypeString
	// TypeHash is a field/value hash (HSET family).
	TypeHash
	// TypeList is a doubly-linked deque (LPUSH family).
	TypeList
)

// String renders the type the way Redis's TYPE command does.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeHash:
		return "hash"
	case TypeList:
		return "list"
	}
	return "none"
}

func typeFromTag(tag uint8) Type {
	switch tag {
	case dstruct.TagHash:
		return TypeHash
	case dstruct.TagList:
		return TypeList
	}
	return TypeString
}

// ErrWrongType reports an operation applied to a key holding another kind
// of value (the serving layer maps it to Redis's WRONGTYPE error).
var ErrWrongType = dstruct.ErrWrongType

// ErrNoMemory reports heap exhaustion inside an object operation.
var ErrNoMemory = dstruct.ErrNoMemory

// Store is a library-mode key-value store.
type Store struct {
	a      alloc.Allocator
	m      *dstruct.HashMap
	budget uint64       // bytes; 0: unbounded
	now    func() int64 // unix ms clock; swappable for deterministic tests
	// The CLOCK hand and the expiry cursor, buckets modulo the count.
	hand, cursor atomic.Uint64

	// Bumped once per command by every connection: striped by goroutine.
	hits, misses, sets, deletes obs.Counter
	expired, reclaimed, evicted obs.Counter
	// Sums of dstruct.Deltas (two's complement): exact whenever no write
	// is in flight. bytes only in a bounded store.
	bytes, ttld obs.Counter
}

// Stats is a snapshot of operation counters.
type Stats struct {
	Hits, Misses, Sets, Deletes, Evictions uint64
	// Expired counts reads answered "missing" by lazy expiry; Reclaimed
	// counts records actively deleted by ReclaimExpired; TTLd is the
	// number of records carrying a stamp, dead ones until reclaimed.
	Expired, Reclaimed, TTLd uint64
	// Bytes is a bounded store's footprint, dead records included.
	Bytes uint64
}

// Add accumulates o into s field by field: the keyspace-wide view over
// several stores.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Sets += o.Sets
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.Expired += o.Expired
	s.Reclaimed += o.Reclaimed
	s.TTLd += o.TTLd
	s.Bytes += o.Bytes
}

func wallClock() int64 { return time.Now().UnixMilli() }

// Open creates an unbounded store: OpenBounded with no budget.
func Open(a alloc.Allocator, h alloc.Handle, buckets int) (*Store, uint64) {
	return OpenBounded(a, h, buckets, 0)
}

// OpenBounded creates a store, returning it and the root offset of its hash
// map header for persistent-root registration. maxBytes is its memory
// budget, 0 meaning none: once the footprint of the records exceeds it, a
// write runs a CLOCK (second-chance) hand over the buckets, which evicts a
// record from each bucket it finds neither read since its last pass nor
// written since the pass before.
// Eviction frees the victims' blocks through the allocator — the churn path
// of a full cache.
func OpenBounded(a alloc.Allocator, h alloc.Handle, buckets int, maxBytes uint64) (*Store, uint64) {
	m, root := dstruct.NewHashMap(a, h, buckets)
	return makeStore(a, m, maxBytes), root
}

func makeStore(a alloc.Allocator, m *dstruct.HashMap, maxBytes uint64) *Store {
	if maxBytes > 0 {
		m.TrackRecency()
	}
	return &Store{a: a, m: m, budget: maxBytes, now: wallClock}
}

// Filter returns the pure recovery GC filter of a store (root is unused): it
// only marks, for a heap traced without being attached — an audit, a
// collection beside live sharers. A restart registers Attaching.Filter.
func Filter(a alloc.Allocator, root uint64) ralloc.Filter {
	return dstruct.HashMapFilter(a.Region(), nil)
}

// Attach re-opens a store unbounded: AttachBounded with no budget. A store
// that was bounded before the restart must pass its budget again, or it is
// silently dropped.
func Attach(a alloc.Allocator, root uint64) *Store {
	return AttachBounded(a, root, 0)
}

// Attaching is the attach of the store whose hash-map header is at root. It
// sees each record once (dstruct's Recovery), repairing the repairable words
// of object secondary structures and the map's record count (so Len — DBSIZE
// — is exact after a crash) and taking the byte and stamp totals from the
// same recount. On a dirty heap the collector's trace is that traversal
// (§4.5.1): BeginAttach, GetRoot(Filter), heap.Recover, Finish — the filter
// stores nothing, Finish repairs and frees. A clean heap has no trace to
// ride: AttachBounded walks it.
//
// Every eviction mark starts clear, like memcached's cold LRU after a
// reboot, but the byte accounting is exact — each record is charged its full
// persistent footprint, object secondary structures included — so the
// budget is enforced from the first Set onward. A record whose deadline has
// passed stays charged until it is reclaimed, as at runtime. If the image
// exceeds maxBytes — a budget lowered across the restart — Finish evicts.
type Attaching struct {
	s  *Store
	rc *dstruct.Recovery
}

// BeginAttach starts an attach; it reads only the map's header.
func BeginAttach(a alloc.Allocator, root, maxBytes uint64) *Attaching {
	s := makeStore(a, dstruct.AttachHashMap(a, root), maxBytes)
	return &Attaching{s, s.m.BeginRecover()}
}

// Filter returns the store's GC filter with the attach riding it.
func (at *Attaching) Filter() ralloc.Filter { return at.rc.Filter() }

// Finish completes the attach on the recovered heap and returns the store.
func (at *Attaching) Finish() *Store {
	s, h := at.s, at.s.a.NewHandle()
	s.account(h, at.rc.Finish(h))
	return s
}

// AttachBounded re-opens the store rooted at root on a recovered heap (after a
// clean close it verifies and changes nothing): an Attaching fed by a walk.
func AttachBounded(a alloc.Allocator, root uint64, maxBytes uint64) *Store {
	at := BeginAttach(a, root, maxBytes)
	at.rc.Walk()
	return at.Finish()
}

// dead reports whether a persisted stamp (0 = immortal) has passed. The
// clock is read only for stamped records: immortal hot-path reads skip it.
func (s *Store) dead(at uint64) bool { return at != 0 && int64(at) <= s.now() }

// add sums a write's Delta into the totals.
func (s *Store) add(d dstruct.Delta) {
	if d.Stamped != 0 {
		s.ttld.Add(d.Stamped)
	}
	if s.budget != 0 {
		s.bytes.Add(d.Bytes)
	}
}

// account adds a write's Delta and, while a bounded store is over its
// budget, advances the CLOCK hand: each unmarked bucket it reaches loses a
// record (its whole graph). A write marks its own bucket, so the hand passes
// it twice before it can be the victim; two laps that evict nothing, which
// take every mark away, end the run.
func (s *Store) account(h alloc.Handle, d dstruct.Delta) {
	s.add(d)
	over := s.budget != 0 && int64(s.bytes.Load()) > int64(s.budget)
	for idle := uint64(0); over && idle < 2*s.m.Buckets(); idle++ {
		if d, ok := s.m.Evict(h, s.hand.Add(1)-1); ok {
			s.add(d)
			s.evicted.Add(1)
			s.deletes.Add(1)
			idle, over = 0, int64(s.bytes.Load()) > int64(s.budget)
		}
	}
}

// SetClock replaces the store's wall clock (unix milliseconds). Tests use it
// to step time deterministically; production code never calls it.
func (s *Store) SetClock(now func() int64) { s.now = now }

// Now returns the store's current clock reading in unix milliseconds.
func (s *Store) Now() int64 { return s.now() }

// SetBytes inserts or replaces a string value; false reports heap
// exhaustion. Like Redis SET, it clears any previous deadline on the key.
func (s *Store) SetBytes(h alloc.Handle, key, value []byte) bool {
	return s.SetBytesExpire(h, key, value, 0)
}

// SetBytesExpire inserts or replaces a value with an absolute deadline
// (unix milliseconds; 0 = immortal). The deadline is persisted in the
// record's own allocation before the record becomes reachable, so an
// acknowledged TTL'd SET can never recover as an immortal key.
func (s *Store) SetBytesExpire(h alloc.Handle, key, value []byte, deadline int64) bool {
	d, ok := s.m.SetExpire(h, key, value, uint64(deadline))
	if ok {
		s.sets.Add(1)
		s.account(h, d)
	}
	return ok
}

// GetBytes fetches a string value. Expiry is lazy: a record past its
// persisted deadline is reported missing — without deleting it (no
// allocation, no frees on the read path); the active expiry cycle reclaims
// the space later. A key holding a hash or list reports
// ErrWrongType (ok=false): string reads never expose object payloads.
func (s *Store) GetBytes(key []byte) ([]byte, bool, error) {
	v, _, ok, err := s.AppendBytes(nil, key)
	return v, ok, err
}

// GetBytesExpire is GetBytes returning the record's deadline too (0 =
// immortal) — the read-modify-write paths (APPEND) use it to preserve a
// key's TTL across the rewrite.
func (s *Store) GetBytesExpire(key []byte) (value []byte, deadline int64, ok bool, err error) {
	return s.AppendBytes(nil, key)
}

// AppendBytes is GetBytesExpire appending the value to dst; nil unless ok.
func (s *Store) AppendBytes(dst, key []byte) (value []byte, deadline int64, ok bool, err error) {
	var rec dstruct.Record
	found := s.m.View(key, func(r dstruct.Record) {
		rec = r
		if r.Tag == dstruct.TagString {
			value = r.AppendValue(dst)
		}
	})
	switch {
	case !found:
		s.misses.Add(1)
		return nil, 0, false, nil
	case s.dead(rec.ExpireAt):
		s.expired.Add(1)
		s.misses.Add(1)
		return nil, 0, false, nil
	case rec.Tag != dstruct.TagString:
		return nil, 0, false, ErrWrongType
	}
	s.hits.Add(1)
	return value, int64(rec.ExpireAt), true, nil
}

// stamp returns key's type tag and persisted deadline, reading only the
// record's header words.
func (s *Store) stamp(key []byte) (tag uint8, at uint64, ok bool) {
	ok = s.m.View(key, func(r dstruct.Record) { tag, at = r.Tag, r.ExpireAt })
	return tag, at, ok
}

// ExpireAt returns key's persisted deadline (unix ms), 0 for none or no key.
func (s *Store) ExpireAt(key []byte) int64 {
	_, at, _ := s.stamp(key)
	return int64(at)
}

// TypeOf reports the kind of value key holds (TypeNone for a missing or
// lazily-expired key).
func (s *Store) TypeOf(key []byte) Type {
	tag, at, ok := s.stamp(key)
	if !ok {
		return TypeNone
	}
	if s.dead(at) {
		s.expired.Add(1)
		return TypeNone
	}
	return typeFromTag(tag)
}

// Expire sets key's absolute deadline (unix milliseconds), reporting whether
// the key existed (live). A deadline at or before now makes the key expire
// immediately. The stamp is updated in place — one word, flushed and fenced
// before Expire returns — so an acknowledged EXPIRE is durable and a crash
// can only leave the old or the new deadline, never a torn state.
func (s *Store) Expire(key []byte, deadline int64) bool {
	_, ok := s.restamp(key, uint64(deadline))
	return ok
}

// Persist clears key's deadline, reporting whether a live key actually had
// one (Redis PERSIST semantics).
func (s *Store) Persist(key []byte) bool {
	prev, ok := s.restamp(key, 0)
	return ok && prev != 0
}

// restamp rewrites a live key's stamp in place and counts the change.
func (s *Store) restamp(key []byte, at uint64) (prev uint64, ok bool) {
	prev, ok = s.m.UpdateExpire(key, at, uint64(s.now()))
	if ok && prev == 0 && at != 0 {
		s.ttld.Add(1)
	} else if ok && prev != 0 && at == 0 {
		s.ttld.Add(^uint64(0))
	}
	return prev, ok
}

// PTTL returns key's remaining lifetime in milliseconds, TTLNone (-1) for a
// live key with no deadline, or TTLMissing (-2) for a missing or expired
// key.
func (s *Store) PTTL(key []byte) int64 {
	_, at, ok := s.stamp(key)
	if !ok {
		return TTLMissing
	}
	if at == 0 {
		return TTLNone
	}
	if rem := int64(at) - s.now(); rem > 0 {
		return rem
	}
	return TTLMissing
}

// ReclaimExpired deletes up to max records whose deadline has passed,
// returning how many it freed — the active half of expiration: min(max, the
// records due) when nothing else writes, since it may look at every marked
// bucket. The serving layer calls ExpiredCandidates, with a bound on the
// buckets, and ReclaimIfExpired itself, under each key's lock.
func (s *Store) ReclaimExpired(h alloc.Handle, max int) int {
	n := 0
	keys, _ := s.ExpiredCandidates(max, math.MaxInt)
	for _, key := range keys {
		if s.ReclaimIfExpired(h, key) {
			n++
		}
	}
	return n
}

// ExpiredCandidates returns up to max keys whose records were due, found by a
// cursor over the buckets marked as holding a stamp: it resumes where the last
// call stopped and stops after one lap or budget marked buckets, whichever
// comes first. visited is how many marked buckets it looked at. A key may be
// re-SET or PERSISTed before the caller acts on it: only ReclaimIfExpired may
// delete one.
func (s *Store) ExpiredCandidates(max, budget int) (keys [][]byte, visited int) {
	keys, next, visited := s.m.Expired(s.cursor.Load(), max, budget, uint64(s.now()))
	s.cursor.Store(next)
	return keys, visited
}

// ReclaimIfExpired deletes key iff its *persisted* stamp has passed, checked
// under the stripe lock (dstruct's conditional Remove), so a key concurrently
// re-SET or PERSISTed is never swept, and reports whether it freed the record.
func (s *Store) ReclaimIfExpired(h alloc.Handle, key []byte) bool {
	_, d, ok := s.m.Remove(h, key, uint64(s.now()))
	if ok {
		s.add(d)
		s.deletes.Add(1)
		s.reclaimed.Add(1)
	}
	return ok
}

// Delete removes a key. The return reports whether an *observably live* key
// was deleted (Redis DEL semantics): deleting an expired-but-unreclaimed
// record frees its space but returns false, since reads already reported
// the key gone. The liveness answer comes from the stamp of the very record
// that was unlinked, read under the same lock. Callers wanting same-key
// atomicity with read-modify-write sequences must serialize externally (the
// server's keyLock).
func (s *Store) Delete(h alloc.Handle, key []byte) bool {
	at, d, ok := s.m.Remove(h, key, 0)
	if !ok {
		return false
	}
	s.add(d)
	s.deletes.Add(1)
	return !s.dead(at)
}

// Len returns the number of records, including expired records not yet
// reclaimed (they still occupy heap, exactly like Redis's DBSIZE). The count
// is exact after a crash too: attach recounts it.
func (s *Store) Len() int { return s.m.Len() }

// live calls fn for every record in buckets [from, to) that has not expired
// — a reader must never observe a record the read path already reports
// gone. fn runs under the map's stripe locks and must not call back into
// the store; to mutate, collect keys first and then Set/Delete them.
func (s *Store) live(from, to uint64, fn func(dstruct.Record) bool) {
	s.m.Range(from, to, func(rec dstruct.Record) bool { return s.dead(rec.ExpireAt) || fn(rec) })
}

// Range calls fn for every *live string* record until fn returns false.
// Typed objects are skipped because their payload is not a client value —
// use Scan for a type-aware walk. Same locking contract as live.
func (s *Store) Range(fn func(key, value []byte) bool) {
	s.live(0, s.m.Buckets(), func(rec dstruct.Record) bool {
		return rec.Tag != dstruct.TagString || fn(rec.Key(), rec.Value())
	})
}

// Scan calls fn with the key and type of every live record (expired records
// skipped), in map walk order. Same locking contract as live.
func (s *Store) Scan(fn func(key []byte, typ Type) bool) {
	s.live(0, s.m.Buckets(), func(rec dstruct.Record) bool { return fn(rec.Key(), typeFromTag(rec.Tag)) })
}

// ScanCursor walks the live keyspace from bucket `cursor`, emitting whole
// buckets until at least `count` keys have been emitted (count is a soft
// target, exactly like Redis's SCAN COUNT: a bucket is never split across
// calls, so a resumed walk never skips or repeats a stable key). It returns
// the bucket to resume from and whether the walk completed. Guarantees
// match Redis: every key present for the whole iteration is returned at
// least once; keys created or deleted mid-iteration may or may not appear.
func (s *Store) ScanCursor(cursor uint64, count int, fn func(key []byte, typ Type)) (next uint64, done bool) {
	emitted := 0
	for b, nb := cursor, s.m.Buckets(); b < nb; b++ {
		s.live(b, b+1, func(rec dstruct.Record) bool {
			emitted++
			fn(rec.Key(), typeFromTag(rec.Tag))
			return true
		})
		if emitted >= max(count, 1) && b+1 < nb {
			return b + 1, false
		}
	}
	return 0, true
}

// TypeCounts is a per-type census of the live keyspace.
type TypeCounts struct {
	Strings, Hashes, Lists int
}

// CountTypes walks the live keyspace and tallies it per type (INFO's
// keyspace-by-type section; expired records are not counted).
func (s *Store) CountTypes() TypeCounts {
	var tc TypeCounts
	s.live(0, s.m.Buckets(), func(rec dstruct.Record) bool {
		switch rec.Tag {
		case dstruct.TagHash:
			tc.Hashes++
		case dstruct.TagList:
			tc.Lists++
		default:
			tc.Strings++
		}
		return true
	})
	return tc
}

// DeleteAll removes every record — stamp-expired corpses included, which
// the live walks skip — freeing whole object graphs. It returns how many
// observably-live keys were removed (FLUSHALL's walk).
func (s *Store) DeleteAll(h alloc.Handle) int {
	var keys [][]byte
	s.m.Range(0, s.m.Buckets(), func(rec dstruct.Record) bool {
		keys = append(keys, rec.Key())
		return true
	})
	n := 0
	for _, k := range keys {
		if s.Delete(h, k) {
			n++
		}
	}
	return n
}

// Bounded reports whether the store enforces a memory budget.
func (s *Store) Bounded() bool { return s.budget != 0 }

// Stats returns a snapshot of the counters. A sum read while writes are in
// flight may be off by their deltas; one that would be negative reads 0.
func (s *Store) Stats() Stats {
	sum := func(c *obs.Counter) uint64 { return uint64(max(int64(c.Load()), 0)) }
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Sets:      s.sets.Load(),
		Deletes:   s.deletes.Load(),
		Evictions: s.evicted.Load(),
		Expired:   s.expired.Load(),
		Reclaimed: s.reclaimed.Load(),
		TTLd:      sum(&s.ttld),
		Bytes:     sum(&s.bytes),
	}
}

// Filter returns the recovery filter for the store's hash map.
func (s *Store) Filter() ralloc.Filter { return s.m.Filter() }
