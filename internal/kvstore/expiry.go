package kvstore

import (
	"sync"
	"sync/atomic"
)

// The persistent truth about expiration is the per-record stamp stored in
// the hash-map node (see dstruct: node word 2). This index is the *volatile*
// side: a DRAM map from key to deadline that exists only so the active
// expiry cycle can find reclaim candidates without walking the whole
// persistent map. Like the LRU index, it is rebuilt by the attach's one pass
// (Attaching); losing it in a crash loses nothing, because every
// read path re-checks the persisted stamp (lazy expiry) and the stamps are
// absolute wall-clock times, so "expired" stays expired across a restart.
//
// Index updates are NOT atomic with the map mutation they mirror (they
// happen outside the map's stripe locks), so under racing writers to the
// same key the index can briefly disagree with the persisted stamps. That
// is safe by construction: the index is only ever a *hint*. Reclaim
// re-checks the persisted stamp under the stripe lock before deleting
// (dstruct's conditional Remove), removes sampled entries only if the
// deadline is still the one it sampled (removeIf), and repairs hints that
// turn out stale (fix). The worst a lost hint costs is delayed reclamation
// of one record until the next Attach rebuilds the index; reads stay
// correct throughout via lazy expiry.

// expiryIndex tracks the deadlines of TTL'd keys for active reclamation.
type expiryIndex struct {
	mu sync.RWMutex
	at map[string]int64 // key -> unix ms deadline
	n  atomic.Int64     // len(at), readable without the lock
}

func newExpiryIndex() *expiryIndex {
	return &expiryIndex{at: make(map[string]int64)}
}

// set records or clears (deadline 0) a key's volatile deadline.
func (ix *expiryIndex) set(key string, deadline int64) {
	if deadline == 0 {
		ix.remove(key)
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.at[key]; !ok {
		ix.n.Add(1)
	}
	ix.at[key] = deadline
}

// has reports whether key carries a hint, under the read side only.
func (ix *expiryIndex) has(key string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, present := ix.at[key]
	return present
}

// remove forgets a key. The empty- and absent-key fast paths take no lock
// or only the read side, keeping immortal hot-path Sets off the write lock
// entirely when no TTL'd keys exist (workloads A/B/C).
func (ix *expiryIndex) remove(key string) {
	if ix.n.Load() == 0 {
		return
	}
	if !ix.has(key) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.at[key]; ok {
		delete(ix.at, key)
		ix.n.Add(-1)
	}
}

// removeIf forgets a key only while its deadline is still at — the caller
// sampled (key, at) earlier, and a concurrent writer may have re-created
// the key with a fresh deadline since; that fresh hint must survive.
func (ix *expiryIndex) removeIf(key string, at int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if cur, ok := ix.at[key]; ok && cur == at {
		delete(ix.at, key)
		ix.n.Add(-1)
	}
}

// fix repairs a hint that disagreed with the persisted stamp: if the entry
// still holds the sampled deadline, it is replaced by the persisted one
// (or dropped when the record is gone or immortal, persisted == 0).
func (ix *expiryIndex) fix(key string, sampled, persisted int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if cur, ok := ix.at[key]; ok && cur == sampled {
		if persisted == 0 {
			delete(ix.at, key)
			ix.n.Add(-1)
		} else {
			ix.at[key] = persisted
		}
	}
}

// ExpiredCandidate is one sampled (key, hint-deadline) pair.
type ExpiredCandidate struct {
	Key string
	At  int64 // sampled hint deadline, passed back to ReclaimIfExpired
}

// sample returns up to max keys whose deadline had passed at now. Go's map
// iteration order is randomized, so repeated samples spread over the whole
// TTL'd population — the same effect as Redis's random-key expiry sampling
// without tracking a cursor. The scan is bounded (8×max entries per call)
// so one cycle never stalls writers for O(tracked) with few keys due.
// Candidates are hints: the caller must confirm against the persistent
// stamp (ReclaimIfExpired) before reclaiming.
func (ix *expiryIndex) sample(max int, now int64) []ExpiredCandidate {
	if ix.n.Load() == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var due []ExpiredCandidate
	scanned := 0
	for k, at := range ix.at {
		if at <= now {
			due = append(due, ExpiredCandidate{Key: k, At: at})
			if len(due) >= max {
				break
			}
		}
		if scanned++; scanned >= max*8 {
			break
		}
	}
	return due
}

// tracked returns how many keys currently carry a deadline.
func (ix *expiryIndex) tracked() int { return int(ix.n.Load()) }
