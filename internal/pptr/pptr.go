// Package pptr implements the position-independent pointer representations
// of the paper (§4.6).
//
// The primary representation is the off-holder: a 64-bit word, stored at
// some location L inside a persistent region, whose value encodes the byte
// offset of its target T relative to L itself (T − L). Because L is always
// at hand when the pointer is loaded or stored, no base register is needed,
// the region can be mapped anywhere, and the pointer still fits in one word
// (unlike PMDK's 128-bit based pointers).
//
// Following the paper, the unused high bits of an off-holder hold an
// "arbitrary uncommon pattern" that is masked away on use; its job is to let
// conservative garbage collection reject the vast majority of integer values
// that are not pointers. With a 1 TB limit on region size, deltas fit in 41
// bits plus sign; we reserve 44 bits for the two's-complement delta and 20
// bits for the magic pattern.
//
// The package also provides the ABA-counted list heads of Ralloc's partial
// lists (§4.2: "The head of both partial lists and the superblock free list
// have 34 bits devoted to a counter"; free superblocks are a bitmap here), and
// counter-tagged absolute offsets used by the lock-free application data
// structures.
package pptr

// Layout of an off-holder word:
//
//	bits 63..44  magic pattern (Magic)
//	bits 43..0   two's-complement delta (target − holder location)
//
// The all-zero word is reserved for nil, which costs us nothing because a
// delta of zero would mean "points at itself", never a valid block pointer.
const (
	deltaBits = 44
	deltaMask = (uint64(1) << deltaBits) - 1
	signBit   = uint64(1) << (deltaBits - 1)

	// Magic is the uncommon high-bit pattern identifying off-holders.
	Magic = uint64(0xCA11A) // 20 bits

	magicShift = deltaBits
	magicMask  = ^deltaMask
)

// MaxDelta is the largest absolute displacement an off-holder can express.
const MaxDelta = int64(1) << (deltaBits - 1)

// Nil is the canonical null off-holder value.
const Nil = uint64(0)

// Pack encodes an off-holder stored at byte offset holder pointing at byte
// offset target. Pack(h, h) is invalid (it would collide with Nil in spirit)
// and panics, as do deltas outside ±MaxDelta.
func Pack(holder, target uint64) uint64 {
	delta := int64(target) - int64(holder)
	if delta == 0 {
		panic("pptr: self-referential off-holder")
	}
	if delta >= MaxDelta || delta < -MaxDelta {
		panic("pptr: delta out of range")
	}
	return Magic<<magicShift | uint64(delta)&deltaMask
}

// Unpack decodes the off-holder value v stored at byte offset holder. It
// reports ok=false for Nil and for any word that does not carry the magic
// pattern — which is exactly the conservative-GC rejection test.
func Unpack(holder, v uint64) (target uint64, ok bool) {
	if v == Nil {
		return 0, false
	}
	if v&magicMask != Magic<<magicShift {
		return 0, false
	}
	delta := v & deltaMask
	var d int64
	if delta&signBit != 0 {
		d = int64(delta | ^deltaMask) // sign-extend
	} else {
		d = int64(delta)
	}
	t := int64(holder) + d
	if t < 0 {
		return 0, false
	}
	return uint64(t), true
}

// IsOffHolder reports whether v carries the off-holder magic pattern.
// Conservative GC uses this as its first filter.
func IsOffHolder(v uint64) bool {
	return v != Nil && v&magicMask == Magic<<magicShift
}

// ----------------------------------------------------------------------
// ABA-counted descriptor-index heads (Ralloc metadata lists).
//
// Ralloc's per-class partial lists are Treiber stacks whose nodes are
// descriptors. A head word packs a monotonically increasing counter with the
// descriptor index; the counter defeats the ABA problem on the head CAS. With
// 64 KB superblocks and a 1 TB region there are at most 2^24 descriptors, so
// we give the index 25 bits (shifted by one so 0 can mean "empty") and the
// counter the remaining 39.

const (
	headIdxBits = 25
	headIdxMask = (uint64(1) << headIdxBits) - 1
)

// HeadNil is the empty ABA-counted head.
const HeadNil = uint64(0)

// PackEmptyHead builds an empty head that still carries an ABA counter.
// Using HeadNil (counter 0) when a list drains would reset the counter and
// reopen the ABA window; pop must preserve it.
func PackEmptyHead(counter uint64) uint64 {
	return counter << headIdxBits
}

// PackHead builds a head word from an ABA counter and a descriptor index.
func PackHead(counter uint64, idx uint32) uint64 {
	if uint64(idx)+1 > headIdxMask {
		panic("pptr: descriptor index out of range")
	}
	return counter<<headIdxBits | (uint64(idx) + 1)
}

// UnpackHead splits a head word; ok=false means the list is empty.
func UnpackHead(h uint64) (counter uint64, idx uint32, ok bool) {
	i := h & headIdxMask
	if i == 0 {
		return h >> headIdxBits, 0, false
	}
	return h >> headIdxBits, uint32(i - 1), true
}

// ----------------------------------------------------------------------
// Counter-tagged absolute offsets (application data structures).
//
// The lock-free stack and queue in internal/dstruct need ABA protection on
// words holding block offsets. Block offsets are 8-aligned and < 1 TB, so
// the offset fits in 37 bits once shifted; the remaining 27 bits hold a
// counter. Unlike off-holders these are *not* recognized by conservative
// GC — structures using them must register filter functions, exactly the
// scenario filter functions exist for (§4.5.1).

const (
	tagOffBits = 37 // offset>>3 fits in 37 bits for regions up to 1 TB
	tagOffMask = (uint64(1) << tagOffBits) - 1
)

// TagNil is a tagged word carrying a nil offset and counter zero.
const TagNil = uint64(0)

// PackTag builds a counter-tagged offset word. off must be 8-aligned.
func PackTag(counter, off uint64) uint64 {
	if off%8 != 0 {
		panic("pptr: tagged offset must be word-aligned")
	}
	s := off >> 3
	if s > tagOffMask {
		panic("pptr: tagged offset out of range")
	}
	return counter<<tagOffBits | s
}

// UnpackTag splits a counter-tagged offset word. A zero offset is the nil
// pointer (offset 0 is never a valid block).
func UnpackTag(v uint64) (counter, off uint64) {
	return v >> tagOffBits, (v & tagOffMask) << 3
}
