package ralloc

import (
	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Ralloc's global lists — the superblock free list and the per-class partial
// lists — are lock-free Treiber stacks of descriptors (§4.2). The head words
// live in the metadata region and carry ABA counters (pptr.PackHead); the
// links are the descriptors' nextFree / nextPartial fields, stored as
// index+1 with 0 meaning nil. All of this state is transient: it is
// reconstructed wholesale by recovery, so none of it is ever flushed — not
// by normal operation, and not by recovery either, whose rebuilt lists,
// anchors and chains a crash after it leaves to the next recovery (gc.go).

// pushDesc pushes descriptor idx onto the list with head word at headOff,
// linking through the descriptor field at offset linkOff.
func (h *Heap) pushDesc(headOff, linkOff uint64, idx uint32) {
	r := h.region
	link := h.lay.descOff(idx) + linkOff
	for {
		old := r.Load(headOff)
		ctr, oldIdx, ok := pptr.UnpackHead(old)
		if ok {
			r.Store(link, uint64(oldIdx)+1)
		} else {
			r.Store(link, 0)
		}
		if r.CAS(headOff, old, pptr.PackHead(ctr+1, idx)) {
			return
		}
	}
}

// popDesc pops a descriptor from the list with head word at headOff.
func (h *Heap) popDesc(headOff, linkOff uint64) (uint32, bool) {
	r := h.region
	for {
		old := r.Load(headOff)
		ctr, idx, ok := pptr.UnpackHead(old)
		if !ok {
			return 0, false
		}
		next := r.Load(h.lay.descOff(idx) + linkOff)
		var newHead uint64
		if next == 0 {
			newHead = pptr.PackEmptyHead(ctr + 1)
		} else {
			newHead = pptr.PackHead(ctr+1, uint32(next-1))
		}
		if r.CAS(headOff, old, newHead) {
			return idx, true
		}
	}
}

// partialHeadOff returns the metadata offset of size class c's partial-list
// head word in shard s (§4.2, sharded: each class's transient partial list
// is split into Config.Shards independent Treiber stacks so that concurrent
// handles contend on distinct head words).
func partialHeadOff(c int, s uint32) uint64 {
	return offShardHeads + uint64(s)*shardSetBytes + uint64(c)*8
}

// partialShardOf maps a descriptor index to its recovery-deterministic
// shard. Normal-operation pushes instead use the freeing handle's home
// shard; both placements are valid because every pop falls back to stealing.
func (h *Heap) partialShardOf(idx uint32) uint32 { return idx & h.shardMask }

// pushPartial pushes descriptor idx onto class c's partial list in shard s.
func (h *Heap) pushPartial(c int, s uint32, idx uint32) {
	h.pushDesc(partialHeadOff(c, s), dOffNextPartial, idx)
}

// popPartial pops a descriptor from class c's partial list, trying the home
// shard first and then stealing round-robin from the remaining shards. A
// success at i > 0 is a steal, counted on the home shard's telemetry block
// (the thief pays, so a hot shard's steal rate shows up on its own row).
func (h *Heap) popPartial(c int, home uint32) (uint32, bool) {
	for i := uint32(0); i < h.shards; i++ {
		s := (home + i) & h.shardMask
		if idx, ok := h.popDesc(partialHeadOff(c, s), dOffNextPartial); ok {
			if i > 0 {
				h.stats[home&h.shardMask].steals.Add(1)
			}
			return idx, true
		}
	}
	return 0, false
}

// retireDesc resets a fully-free superblock's descriptor and returns it to
// the superblock free list, making it available for any size class (§4.4).
// The caller must own the superblock (state EMPTY and off every list).
func (h *Heap) retireDesc(idx uint32) {
	r := h.region
	d := h.lay.descOff(idx)
	r.Store(d+dOffClass, 0)
	r.Store(d+dOffBlockSize, 0)
	r.Store(d+dOffNumSB, 0)
	r.Store(d+dOffAnchor, packAnchor(stateEmpty, anchorAvailNone, 0))
	h.pushDesc(offFreeHead, dOffNextFree, idx)
}

// remapShards redistributes every partial list built under an oldShards
// geometry onto the current h.shards geometry (descriptor index mod shard
// count). The caller must hold the heap quiescent with trustworthy lists
// (a clean attach); a dirty heap's lists are rebuilt by recovery instead.
func (h *Heap) remapShards(oldShards uint32) {
	for c := 1; c <= sizeclass.NumClasses; c++ {
		var descs []uint32
		for s := uint32(0); s < oldShards; s++ {
			for {
				idx, ok := h.popDesc(partialHeadOff(c, s), dOffNextPartial)
				if !ok {
					break
				}
				descs = append(descs, idx)
			}
		}
		for _, idx := range descs {
			h.pushPartial(c, h.partialShardOf(idx), idx)
		}
	}
}
