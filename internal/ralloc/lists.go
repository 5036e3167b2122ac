package ralloc

import (
	"math/bits"

	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Ralloc's global lists are transient, rebuilt at every attach: by recovery
// after a crash (gc.go), by relist after a clean Close. The per-class partial
// lists are lock-free Treiber stacks of descriptors (§4.2): ABA-counted head
// words in the metadata region (pptr.PackHead), linked through nextPartial
// as index+1 (0 = nil), never flushed. The free superblocks are the set bits
// of Heap.free, a volatile bitmap in place of §4.2's superblock free list: a
// large run needs k contiguous free superblocks, which a bitmap finds and
// coalesces and a stack does not.

// pushPartial pushes descriptor idx onto class c's partial list in shard s.
func (h *Heap) pushPartial(c int, s uint32, idx uint32) {
	r := h.region
	headOff, link := partialHeadOff(c, s), h.lay.descOff(idx)+dOffNextPartial
	for {
		old := r.Load(headOff)
		ctr, oldIdx, ok := pptr.UnpackHead(old)
		next := uint64(0) // index+1, 0 = nil
		if ok {
			next = uint64(oldIdx) + 1
		}
		r.Store(link, next)
		if r.CAS(headOff, old, pptr.PackHead(ctr+1, idx)) {
			return
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

// partialShardOf maps a descriptor index to its rebuild-deterministic
// shard. Normal-operation pushes instead use the freeing handle's home
// shard; both placements are valid because every pop falls back to stealing.
func (h *Heap) partialShardOf(idx uint32) uint32 { return idx & h.shardMask }

// popPartial pops a descriptor from class c's partial list, trying the home
// shard first and then stealing round-robin from the remaining shards. A
// success at i > 0 is a steal, counted on the home shard's telemetry block
// (the thief pays, so a hot shard's steal rate shows up on its own row).
func (h *Heap) popPartial(c int, home uint32) (uint32, bool) {
	r := h.region
	for i := uint32(0); i < h.shards; i++ {
		headOff := partialHeadOff(c, (home+i)&h.shardMask)
		for {
			old := r.Load(headOff)
			ctr, idx, ok := pptr.UnpackHead(old)
			if !ok {
				break
			}
			newHead := pptr.PackEmptyHead(ctr + 1)
			if next := r.Load(h.lay.descOff(idx) + dOffNextPartial); next != 0 {
				newHead = pptr.PackHead(ctr+1, uint32(next-1))
			}
			if r.CAS(headOff, old, newHead) {
				if i > 0 {
					h.stats[home&h.shardMask].steals.Add(1)
				}
				return idx, true
			}
		}
	}
	return 0, false
}

// retireDesc resets a fully-free superblock's descriptor and marks it free,
// available for any size class or run (§4.4). The caller must own the
// superblock (state EMPTY and off every list).
func (h *Heap) retireDesc(idx uint32) {
	r, d := h.region, h.lay.descOff(idx)
	r.Store(d+dOffClass, 0)
	r.Store(d+dOffBlockSize, 0)
	r.Store(d+dOffNumSB, 0)
	r.Store(d+dOffAnchor, packAnchor(stateEmpty, anchorAvailNone, 0))
	h.release(idx, 1)
}

// unformatted reports whether descriptor i's class, size and run length are 0.
func (h *Heap) unformatted(i uint32) bool {
	r, d := h.region, h.lay.descOff(i)
	return r.Load(d+dOffClass)|r.Load(d+dOffBlockSize)|r.Load(d+dOffNumSB) == 0
}

// release marks the k superblocks from first free.
func (h *Heap) release(first, k uint32) {
	for i, end := first, first+k; i < end; {
		w, mask, n := runMask(i, end)
		h.free[w].Or(mask)
		i += n
	}
}

// runMask returns the word of the free bitmap holding bit i, the mask of the
// bits from i up to end (exclusive) that lie in it, and how many those are.
func runMask(i, end uint32) (w uint32, mask uint64, n uint32) {
	b := i % 64
	n = min(64-b, end-i)
	return i / 64, ^uint64(0) >> (64 - n) << b, n
}

// take claims the lowest run of k free superblocks below the used watermark
// and returns its first index; false when there is none. It takes no lock:
// one CAS per word claims a run, and a run that another handle claimed part
// of first is given back and the scan starts over.
func (h *Heap) take(k uint32) (uint32, bool) {
	n := h.usedDescs()
	for i, run := uint32(0), uint32(0); i < n; {
		word := h.free[i/64].Load() >> (i % 64)
		if word&1 == 0 {
			i += min(uint32(bits.TrailingZeros64(word)), 64-i%64)
			run = 0
			continue
		}
		if i, run = i+1, run+1; run == k {
			if h.claim(i-k, k) {
				return i - k, true
			}
			i, run = 0, 0
		}
	}
	return 0, false
}

// claim clears the k free bits from first, or none of them if one is
// already clear: the bits it cleared are given back.
func (h *Heap) claim(first, k uint32) bool {
	for i, end := first, first+k; i < end; {
		w, mask, n := runMask(i, end)
		for {
			old := h.free[w].Load()
			if old&mask != mask {
				h.release(first, i-first)
				return false
			}
			if h.free[w].CompareAndSwap(old, old&^mask) {
				break
			}
		}
		i += n
	}
	return true
}

// relist rebuilds the lists of a cleanly closed heap, whose anchors are
// intact, in one scan of the descriptors classified as the sweep does: a
// partial superblock goes on its class's list in its deterministic shard, an
// empty one left on a list (to be retired lazily) is retired, a free one is
// marked free. Nothing is flushed: after a crash, recovery rebuilds them.
func (h *Heap) relist() {
	h.resetLists()
	n := h.usedDescs()
	for i := uint32(0); i < n; {
		k := h.unitLen(i, n)
		switch c, _ := h.unitClass(i, k); {
		case c < 0 && h.unformatted(i): // k is 1
			h.release(i, 1)
		case c < 0:
			for j := i; j < i+k; j++ {
				h.retireDesc(j)
			}
		case c > 0:
			switch st, _, _ := unpackAnchor(h.region.Load(h.lay.descOff(i) + dOffAnchor)); st {
			case statePartial:
				h.pushPartial(c, h.partialShardOf(i), i)
			case stateEmpty:
				h.retireDesc(i)
			}
		}
		i += k
	}
}

// resetLists empties the free index and every partial-list shard slot — all
// MaxShards of them, not just the active h.shards, so that no stale head
// left by a session that ran with more shards is ever walked.
func (h *Heap) resetLists() {
	for w := range h.free {
		h.free[w].Store(0)
	}
	for c := 0; c <= sizeclass.NumClasses; c++ {
		for s := uint32(0); s < MaxShards; s++ {
			h.region.Store(partialHeadOff(c, s), pptr.HeadNil)
		}
	}
}
