package kvstore

// The typed object API: hash (HSET family) and list (LPUSH family) values
// over the tagged persistent records of dstruct. Every method applies the
// same lazy-expiry policy as the string path (a record past its persisted
// deadline is invisible; object *writes* additionally reap the corpse in
// place so dead fields or elements can never resurrect into the new
// object), and bounded stores charge each key its full graph footprint —
// every write's dstruct.Delta, from the object header's persistently
// maintained bytes word — so evicting a hash frees its fields, not just its
// top record.

import (
	"errors"

	"repro/internal/alloc"
	"repro/internal/dstruct"
)

// errBadPairs reports an HSet call without matched field/value pairs (the
// serving layer validates arity before it gets here; this guards library
// callers).
var errBadPairs = errors.New("kvstore: HSet requires field/value pairs")

// readCounters applies the shared read bookkeeping: lazy-expiry tally and
// hit/miss counters.
func (s *Store) readCounters(ok, expired bool) {
	if expired {
		s.expired.Add(1)
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// HSet inserts or replaces field/value pairs in the hash at key, creating
// it if absent (or expired). It returns how many fields were newly created.
// A fresh key's HSET is crash-atomic as a whole (the object is populated
// before one durable link makes it reachable); on an existing hash each
// pair commits individually, so a crash mid-HSET leaves every field wholly
// old or wholly new. HSET never touches the key's TTL, like Redis.
func (s *Store) HSet(h alloc.Handle, key []byte, fieldvals ...[]byte) (created int, err error) {
	if len(fieldvals) == 0 || len(fieldvals)%2 != 0 {
		return 0, errBadPairs
	}
	created, d, err := s.m.HSet(h, key, fieldvals, uint64(s.now()))
	s.account(h, d)
	if err != nil {
		return 0, err
	}
	s.sets.Add(1)
	return created, nil
}

// HGet fetches one field of the hash at key.
func (s *Store) HGet(key, field []byte) (val []byte, ok bool, err error) {
	v, ok, expired, err := s.m.HGet(key, field, uint64(s.now()))
	if err != nil {
		return nil, false, err
	}
	s.readCounters(ok, expired)
	return v, ok, nil
}

// HExists reports whether the hash at key has the field.
func (s *Store) HExists(key, field []byte) (bool, error) {
	_, ok, err := s.HGet(key, field)
	return ok, err
}

// HDel removes fields from the hash at key, returning how many existed.
// Removing the last field deletes the key itself (Redis drops empty
// hashes).
func (s *Store) HDel(h alloc.Handle, key []byte, fields ...[]byte) (int, error) {
	removed, d, gone, err := s.m.HDel(h, key, fields, uint64(s.now()))
	s.add(d)
	if gone {
		s.deletes.Add(1) // last field removed: the record went with it
	}
	return removed, err
}

// HLen returns the number of fields in the hash at key (0 if missing).
func (s *Store) HLen(key []byte) (int, error) { return s.objLen(key, dstruct.TagHash) }

// LLen returns the length of the list at key (0 if missing).
func (s *Store) LLen(key []byte) (int, error) { return s.objLen(key, dstruct.TagList) }

func (s *Store) objLen(key []byte, tag uint8) (int, error) {
	n, expired, err := s.m.ObjLen(key, tag, uint64(s.now()))
	if err != nil {
		return 0, err
	}
	if expired {
		s.expired.Add(1)
	}
	return n, nil
}

// HGetAll returns every field and value of the hash at key as parallel
// slices (empty for a missing key).
func (s *Store) HGetAll(key []byte) (fields, values [][]byte, err error) {
	fields, values, expired, err := s.m.HGetAll(key, uint64(s.now()))
	if err != nil {
		return nil, nil, err
	}
	s.readCounters(len(fields) > 0, expired)
	return fields, values, nil
}

// LPush prepends values to the list at key, creating it if absent (or
// expired), and returns the new length.
func (s *Store) LPush(h alloc.Handle, key []byte, vals ...[]byte) (int, error) {
	return s.push(h, key, vals, true)
}

// RPush appends values to the list at key and returns the new length.
func (s *Store) RPush(h alloc.Handle, key []byte, vals ...[]byte) (int, error) {
	return s.push(h, key, vals, false)
}

func (s *Store) push(h alloc.Handle, key []byte, vals [][]byte, left bool) (int, error) {
	if len(vals) == 0 {
		n, err := s.LLen(key)
		return n, err
	}
	n, d, err := s.m.Push(h, key, vals, left, uint64(s.now()))
	s.account(h, d)
	if err != nil {
		return 0, err
	}
	s.sets.Add(1)
	return n, nil
}

// LPop removes and returns the head of the list at key; popping the last
// element deletes the key (Redis drops empty lists).
func (s *Store) LPop(h alloc.Handle, key []byte) ([]byte, bool, error) {
	return s.pop(h, key, true)
}

// RPop is LPop at the tail.
func (s *Store) RPop(h alloc.Handle, key []byte) ([]byte, bool, error) {
	return s.pop(h, key, false)
}

func (s *Store) pop(h alloc.Handle, key []byte, left bool) ([]byte, bool, error) {
	val, ok, d, gone, expired, err := s.m.Pop(h, key, left, uint64(s.now()))
	if err != nil {
		return nil, false, err
	}
	s.readCounters(ok, expired)
	s.add(d)
	if gone {
		s.deletes.Add(1) // last element removed: the record went with it
	}
	return val, ok, nil
}

// LRange returns the elements of the list at key between start and stop
// inclusive, with Redis index semantics (negative indexes count from the
// tail; out-of-range clamps to an empty result).
func (s *Store) LRange(key []byte, start, stop int64) ([][]byte, error) {
	vals, expired, err := s.m.LRange(key, start, stop, uint64(s.now()))
	if err != nil {
		return nil, err
	}
	s.readCounters(len(vals) > 0, expired)
	return vals, nil
}
