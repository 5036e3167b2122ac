package kvstore

import (
	"container/list"
	"sync"

	"repro/internal/dstruct"
)

// Memcached evicts least-recently-used records when it reaches its memory
// budget; the eviction path is pure allocator churn (free the old record's
// node). Like memcached's own LRU, the recency metadata is *transient* —
// it lives in DRAM and is rebuilt (empty) after a restart; only the records
// themselves are persistent.

// lruEntry is one tracked record.
type lruEntry struct {
	key  string
	size uint64
}

// lruIndex tracks recency and memory use for a bounded Store.
type lruIndex struct {
	mu       sync.Mutex
	order    *list.List // front = most recent; values are *lruEntry
	byKey    map[string]*list.Element
	bytes    uint64
	maxBytes uint64
	evicted  uint64
}

func newLRUIndex(maxBytes uint64) *lruIndex {
	return &lruIndex{
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
		maxBytes: maxBytes,
	}
}

// footprint is a string record's heap cost: the size of its map node.
func footprint(key, value int) uint64 {
	return dstruct.RecordSize(uint64(key), uint64(value))
}

// touch marks key as most recently used.
func (ix *lruIndex) touch(key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.byKey[key]; ok {
		ix.order.MoveToFront(e)
	}
}

// update records an insert or replace and returns the keys to evict to get
// back under budget (the caller deletes them from the persistent map).
func (ix *lruIndex) update(key string, size uint64) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.byKey[key]; ok {
		ent := e.Value.(*lruEntry)
		ix.bytes += size
		ix.bytes -= ent.size
		ent.size = size
		ix.order.MoveToFront(e)
	} else {
		ix.byKey[key] = ix.order.PushFront(&lruEntry{key: key, size: size})
		ix.bytes += size
	}
	var victims []string
	for ix.bytes > ix.maxBytes && ix.order.Len() > 1 {
		back := ix.order.Back()
		ent := back.Value.(*lruEntry)
		if ent.key == key {
			break
		}
		ix.order.Remove(back)
		delete(ix.byKey, ent.key)
		ix.bytes -= ent.size
		ix.evicted++
		victims = append(victims, ent.key)
	}
	return victims
}

// prime seeds the index with an already-stored record without triggering
// eviction; an attach uses it while rebuilding recency state from the
// persistent map. Records primed later rank as more recently used.
func (ix *lruIndex) prime(key string, size uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.byKey[key]; ok {
		ent := e.Value.(*lruEntry)
		ix.bytes += size - ent.size
		ent.size = size
		ix.order.MoveToFront(e)
	} else {
		ix.byKey[key] = ix.order.PushFront(&lruEntry{key: key, size: size})
		ix.bytes += size
	}
}

// evictOver returns the keys to evict to bring the index back under budget
// (oldest first), used after priming from an over-budget persistent image.
func (ix *lruIndex) evictOver() []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var victims []string
	for ix.bytes > ix.maxBytes && ix.order.Len() > 0 {
		back := ix.order.Back()
		ent := back.Value.(*lruEntry)
		ix.order.Remove(back)
		delete(ix.byKey, ent.key)
		ix.bytes -= ent.size
		ix.evicted++
		victims = append(victims, ent.key)
	}
	return victims
}

// remove forgets a deleted key.
func (ix *lruIndex) remove(key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.byKey[key]; ok {
		ix.order.Remove(e)
		delete(ix.byKey, key)
		ix.bytes -= e.Value.(*lruEntry).size
	}
}

// Bytes returns the tracked footprint.
func (ix *lruIndex) Bytes() uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.bytes
}

// Evicted returns how many records the budget has pushed out.
func (ix *lruIndex) Evicted() uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.evicted
}
