// Fixtures for the atomicword analyzer.
package atomicmix

import "fixture/pmem"

// mix accesses the same word atomically and through raw bytes: the two
// views are not atomic with respect to each other.
func mix(r *pmem.Region, off uint64) {
	r.Store(off+8, 1)
	var b [8]byte
	r.ReadBytes(off+8, b[:]) // want "word off\+8 is accessed non-atomically via ReadBytes"
}

// compareMix compares a word in place that is also stored atomically: the
// in-place compare is a byte read like ReadBytes.
func compareMix(r *pmem.Region, off uint64, key []byte) bool {
	r.Store(off+384, 1)
	return r.EqualBytes(off+384, key) // want "word off\+384 is accessed non-atomically via EqualBytes"
}

// zeroMix clears a word that is also CASed: Zero is a plain clear, a byte
// write like WriteBytes. Clearing the payload behind the word is fine.
func zeroMix(r *pmem.Region, off uint64) {
	r.CAS(off+448, 0, 1)
	r.Zero(off+448, 64) // want "word off\+448 is accessed non-atomically via Zero"
	r.Zero(off+456, 56)
}

// compareKey is the record path's shape: the lengths word is loaded, the key
// bytes behind the header are compared in place — different words, fine.
func compareKey(r *pmem.Region, off uint64, key []byte) bool {
	return r.Load(off+392)>>32 == uint64(len(key)) && r.EqualBytes(off+408, key)
}

// rmw is the PR 2 lost-update shape: Store of a value derived from Load of
// the same word on the same Region.
func rmw(r *pmem.Region, off uint64) {
	r.Store(off+64, r.Load(off+64)+1) // want "non-atomic read-modify-write of word off\+64"
}

// copyBetween copies one word between two different Regions: same offset
// text, different receivers — not an RMW and not a mix.
func copyBetween(dst, src *pmem.Region, off uint64) {
	dst.Store(off+128, src.Load(off+128))
}

// disjoint uses atomic and raw accessors on different words: fine.
func disjoint(r *pmem.Region, off uint64) {
	r.Store(off+192, 1)
	r.WriteBytes(off+256, []byte("payload"))
}

// counter uses the atomic RMW the analyzer points at: fine.
func counter(r *pmem.Region, off uint64) {
	r.Add(off+320, 1)
}
