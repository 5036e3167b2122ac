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
// coalesces and a stack does not. Heap.class mirrors each descriptor's class
// for Free: it changes only at a format or a retire, by the superblock's
// owner, and a block is freed after its format and before any retire.

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
	h.storeDesc(idx, desc{})
	h.region.Store(h.lay.descOff(idx)+dOffAnchor, packAnchor(stateEmpty, anchorAvailNone, 0))
	h.release(idx, 1)
}

// desc is a descriptor's persisted words: class, block size, run length.
type desc struct{ cls, bs, numSB uint64 }

// storeDesc stores descriptor idx's persisted words and mirrors its class in
// h.class. The caller flushes.
func (h *Heap) storeDesc(idx uint32, w desc) {
	r, d := h.region, h.lay.descOff(idx)
	r.Store(d+dOffClass, w.cls)
	r.Store(d+dOffBlockSize, w.bs)
	r.Store(d+dOffNumSB, w.numSB)
	h.class[idx] = uint8(w.cls)
}

// loadDesc reads descriptor i's persisted words as one counted group.
func (h *Heap) loadDesc(i uint32) desc {
	d := h.lay.descOff(i)
	offs, w := [3]uint64{d + dOffClass, d + dOffBlockSize, d + dOffNumSB}, [3]uint64{}
	h.region.LoadEach(offs[:], w[:])
	return desc{w[0], w[1], w[2]}
}

// largeHead reports whether d heads an allocated large run.
func (d desc) largeHead() bool { return d.cls == 0 && d.bs > 0 && d.numSB > 0 }

// unformatted reports whether d's class, size and run length are 0.
func (d desc) unformatted() bool { return d.cls|d.bs|d.numSB == 0 }

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
// marked free, a kept one is mirrored. Nothing is flushed: after a crash,
// recovery rebuilds them.
func (h *Heap) relist() {
	h.resetLists()
	n := h.usedDescs()
	for i := uint32(0); i < n; {
		d := h.loadDesc(i)
		k := d.unitLen(i, n)
		switch c := d.unitClass(k); {
		case c < 0 && d.unformatted(): // k is 1
			h.release(i, 1)
		case c < 0:
			for j := i; j < i+k; j++ {
				h.retireDesc(j)
			}
		case c == 0:
			h.mirror(i, k, 0)
		default:
			h.mirror(i, 1, c)
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

// mirror records a kept unit in h.class: class c, then a run's body.
func (h *Heap) mirror(first, count uint32, c int) {
	h.class[first] = uint8(c)
	for j := first + 1; j < first+count; j++ {
		h.class[j] = contClass
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
