// Package ralloc implements Ralloc, the nonblocking recoverable persistent
// allocator of Cai et al. (2020), over a simulated persistent-memory region.
//
// A Ralloc heap comprises three contiguous regions inside one pmem segment
// (paper Fig. 2):
//
//   - the metadata region (fixed size): dirty indicator, superblock-region
//     size and used watermark, one record per size class (block size), 1024
//     persistent roots, and the sharded partial-list heads (one head word per
//     size class per shard);
//   - the descriptor region: one 64-byte descriptor per superblock, the
//     locus of synchronization for that superblock;
//   - the superblock region: an array of 64 KB superblocks holding the
//     actual blocks, consumed in increasing address order on demand.
//
// During normal operation almost nothing is flushed: only the superblock
// region's used watermark, each superblock's size class and block size (once,
// when the superblock is initialized for a class), the persistent roots, and
// the dirty indicator — the bold fields of Fig. 2. Everything else (anchors,
// list links, thread caches) is transient, and two volatile indexes outside
// the region stand beside the descriptors: a bitmap of the free superblocks
// and a byte per superblock mirroring its class, which Free reads instead of
// the descriptor. Post-crash garbage collection rebuilds it all: one
// recovery engine (gc.go) behind four entry points — Trace, Recover,
// RecoverParallel and Manager.Collect. A clean attach rebuilds the lists and
// both indexes with one scan of the descriptors (relist, lists.go).
package ralloc

import "fmt"

const (
	// SuperblockBytes is the size of one superblock (64 KB, §4.2).
	SuperblockBytes = 1 << 16
	// DescBytes is the size of one descriptor, padded to a cache line.
	DescBytes = 64
	// MetaBytes is the fixed size of the metadata region.
	MetaBytes = 1 << 16
	// NumRoots is the number of persistent root slots (§4.2).
	NumRoots = 1024

	// heapMagic identifies an initialized Ralloc heap image ("RALLOC1\0").
	heapMagic = 0x0031434C4C4152
	// heapVersion is bumped on incompatible layout changes.
	// v2: partial-list heads moved from the size-class records into the
	// sharded head array at offShardHeads. Words 40 and 48 of the metadata,
	// where earlier builds kept the superblock free-list head and the shard
	// count, are unused and ignored, as is each size-class record's second
	// word.
	// v3: dstruct hash-map nodes grew a third header word (the expiration
	// stamp), shifting key/value offsets — a v2 image's records would be
	// silently misread, so it must be rejected here instead.
	// v4: dstruct records carry a type tag in the top bits of the lengths
	// word (string | hash | list), with non-string payloads pointing at
	// secondary structures.
	heapVersion = 4

	// MaxShards bounds the number of partial-list shards per size class.
	// 64 shard sets of 40 head words each fit comfortably in the metadata
	// region after the roots (offShardHeads + 64*shardSetBytes < MetaBytes).
	MaxShards = 64
)

// Metadata-region field offsets (bytes from the start of the region).
const (
	offMagic   = 0
	offVersion = 8
	offDirty   = 16 // dirty indicator (robust-mutex stand-in)
	offSBSize  = 24 // max size of the superblock region
	offSBUsed  = 32 // bytes of the superblock region in use  [flushed]

	offClasses      = 64 // 40 size-class records
	classEntryBytes = 16 // blockSize, unused word
	offRoots        = offClasses + 40*classEntryBytes
	// roots occupy NumRoots*8 = 8192 bytes; offRoots+8192 = 8896.

	// offShardHeads starts the sharded partial-list heads: MaxShards sets,
	// each holding one head word per size class. Laying the array out
	// shard-major keeps different shards' heads of the same class at least
	// shardSetBytes (320 B) apart, so contending handles never false-share
	// a cache line. 8896 + 64*320 = 29376 < MetaBytes.
	offShardHeads = offRoots + NumRoots*8
	shardSetBytes = 40 * 8 // one head per size-class record
)

// Descriptor field offsets (bytes from the start of the descriptor).
//
// Persisted fields (flushed before the superblock is used): class, blockSize
// and numSB — they share the descriptor's single cache line, so persisting
// them costs one flush. anchor and nextPartial are transient; word 24 is
// unused.
const (
	dOffAnchor      = 0  // packed state/avail/count, updated with CAS
	dOffClass       = 8  // size-class index; 0 = large; contClass = run body
	dOffBlockSize   = 16 // block size in bytes (actual size for large)
	dOffNextPartial = 32 // next descriptor index+1 on a partial list
	dOffNumSB       = 40 // for large runs: number of superblocks (first desc)
)

// contClass marks a descriptor whose superblock is the continuation (second
// or later superblock) of a large allocation run. It is persisted so that
// conservative GC can reject pointers into the middle of a run.
const contClass = 0xFF

// Superblock anchor states (§4.2).
const (
	stateEmpty   = 0 // all blocks free
	statePartial = 1 // some blocks free
	stateFull    = 2 // no blocks free
)

// Anchor packing: state in the top 2 bits, the index of the first free block
// in the next 31, the free count in the low 31. A superblock holds at most
// 8192 blocks, so 31 bits are ample for both fields.
const (
	anchorAvailNone = 0x7FFFFFFF // "no free block" index
	anchorFieldMask = 0x7FFFFFFF
)

func packAnchor(state uint64, avail, count uint32) uint64 {
	return state<<62 | uint64(avail)<<31 | uint64(count)
}

func unpackAnchor(a uint64) (state uint64, avail, count uint32) {
	return a >> 62, uint32(a>>31) & anchorFieldMask, uint32(a) & anchorFieldMask
}

// layout holds the derived geometry of a heap.
type layout struct {
	maxDescs  uint32 // number of descriptors / superblocks
	descStart uint64 // byte offset of the descriptor region
	sbStart   uint64 // byte offset of the superblock region
	sbSize    uint64 // max bytes of the superblock region
	total     uint64 // total region size
}

// computeLayout derives the region geometry for a superblock region of
// sbSize bytes (rounded up to whole superblocks).
func computeLayout(sbSize uint64) (layout, error) {
	if sbSize < SuperblockBytes {
		return layout{}, fmt.Errorf("ralloc: superblock region %d smaller than one superblock", sbSize)
	}
	sbSize = (sbSize + SuperblockBytes - 1) / SuperblockBytes * SuperblockBytes
	nDesc := sbSize / SuperblockBytes
	if nDesc > 1<<24 {
		return layout{}, fmt.Errorf("ralloc: superblock region %d exceeds the 1 TB limit", sbSize)
	}
	descBytes := (nDesc*DescBytes + SuperblockBytes - 1) / SuperblockBytes * SuperblockBytes
	// The superblock region sits directly after the metadata, with the
	// descriptor region *behind* it. This deviates from Fig. 2's drawing
	// order but preserves its key property under resizing (§4.1): the
	// superblock region's base never moves, so block offsets — including
	// the absolute offsets inside counter-tagged words — stay valid, and
	// only the descriptor region (pure indices, position-independent)
	// relocates.
	l := layout{
		maxDescs:  uint32(nDesc),
		descStart: MetaBytes + sbSize,
		sbStart:   MetaBytes,
		sbSize:    sbSize,
		total:     MetaBytes + descBytes + sbSize,
	}
	return l, nil
}

// classEntryOff returns the metadata offset of size-class record c.
func classEntryOff(c int) uint64 { return offClasses + uint64(c)*classEntryBytes }

// rootOff returns the metadata offset of persistent root slot i.
func rootOff(i int) uint64 { return offRoots + uint64(i)*8 }

// descOff returns the byte offset of descriptor idx.
func (l *layout) descOff(idx uint32) uint64 {
	return l.descStart + uint64(idx)*DescBytes
}

// sbOff returns the byte offset of superblock idx.
func (l *layout) sbOff(idx uint32) uint64 {
	return l.sbStart + uint64(idx)*SuperblockBytes
}

// descIndexOf maps a block offset to the index of its superblock descriptor
// ("found via bit manipulation", §4.4).
func (l *layout) descIndexOf(off uint64) (uint32, bool) {
	if off < l.sbStart || off >= l.sbStart+l.sbSize {
		return 0, false
	}
	return uint32((off - l.sbStart) / SuperblockBytes), true
}
