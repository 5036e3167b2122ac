package ralloc

import (
	"fmt"

	"repro/internal/sizeclass"
)

// Handle is a per-goroutine allocation context holding the transient
// thread-local caches of free blocks (§4.2). Most allocations and
// deallocations are served from the cache without synchronization; the
// cache is refilled from (and overflows to) the global lists with CAS.
//
// Handles are not safe for concurrent use. After a crash + Recover, old
// handles are invalid (their cached blocks were reclaimed by GC) and any
// use panics.
type Handle struct {
	heap    *Heap
	shard   uint32 // home partial-list shard
	invalid bool
	cache   [sizeclass.NumClasses + 1][]uint64

	// Stats
	mallocs, frees, refills, drains uint64
}

func (hd *Handle) check() {
	if hd.invalid {
		panic("ralloc: use of handle invalidated by Close or Recover")
	}
}

// Malloc allocates size bytes and returns the block's byte offset within
// the heap region, or 0 if the heap is exhausted. The fast path — cache
// non-empty — performs no synchronization, no flush and no fence: Ralloc
// pays almost nothing for persistence during normal operation.
func (hd *Handle) Malloc(size uint64) uint64 {
	hd.check()
	hd.mallocs++
	c := sizeclass.SizeToClass(size)
	if c == 0 {
		return hd.heap.mallocLarge(size)
	}
	tc := &hd.cache[c]
	if len(*tc) == 0 && !hd.refill(c) {
		return 0
	}
	n := len(*tc) - 1
	off := (*tc)[n]
	*tc = (*tc)[:n]
	return off
}

// Free deallocates a block previously returned by Malloc. Small blocks go
// to the thread cache; when the cache overflows, blocks are pushed back to
// their superblocks' free chains in per-superblock batches (drain →
// flushBlocks). The class comes from Heap.class, not the descriptor, so the
// fast path reads no persistent word (lists.go says why that is safe).
func (hd *Handle) Free(off uint64) {
	if off == 0 {
		return
	}
	hd.check()
	hd.frees++
	h := hd.heap
	idx, ok := h.lay.descIndexOf(off)
	if !ok {
		panic(fmt.Sprintf("ralloc: Free(%#x) outside the superblock region", off))
	}
	c := int(h.class[idx])
	switch {
	case c == 0:
		h.freeLarge(idx, off)
		return
	case c == contClass:
		panic(fmt.Sprintf("ralloc: Free(%#x) points into the middle of a large run", off))
	case (off-h.lay.sbOff(idx))%sizeclass.ClassToSize(c) != 0:
		panic(fmt.Sprintf("ralloc: Free(%#x) is not a block boundary", off))
	}
	tc := &hd.cache[c]
	*tc = append(*tc, off)
	if len(*tc) > hd.capFor(c) {
		hd.drain(c)
	}
}

// capFor returns the thread-cache capacity for class c.
func (hd *Handle) capFor(c int) int {
	if hd.heap.cfg.CacheCap > 0 {
		return hd.heap.cfg.CacheCap
	}
	return sizeclass.BlocksPerSuperblock(c, SuperblockBytes)
}

// refill recharges the class-c cache: first from a partially used superblock
// on the class's partial list, then from a free superblock, and finally by
// expanding the used space of the superblock region (§4.4).
func (hd *Handle) refill(c int) bool {
	h := hd.heap
	r := h.region
	hd.refills++
	sc := &h.stats[hd.shard&h.shardMask]
	sc.refills.Add(1)

	// 1. Partial superblock: reserve all of its free blocks with one CAS.
	// The pop prefers the handle's home shard and steals round-robin.
partial:
	for {
		idx, ok := h.popPartial(c, hd.shard)
		if !ok {
			break
		}
		d := h.lay.descOff(idx)
		for {
			a := r.Load(d + dOffAnchor)
			st, avail, count := unpackAnchor(a)
			if st == stateEmpty {
				// PARTIAL→EMPTY while on the list: retire it
				// now that we fetched it (§4.4), try the next.
				h.retireDesc(idx)
				continue partial
			}
			if count == 0 {
				// Drained concurrently; nothing to take here.
				continue partial
			}
			if !r.CAS(d+dOffAnchor, a, packAnchor(stateFull, anchorAvailNone, 0)) {
				continue
			}
			// The chain of `count` blocks from `avail` is now
			// privately owned: walk it into the cache.
			blockSize := sizeclass.ClassToSize(c)
			sb := h.lay.sbOff(idx)
			tc := &hd.cache[c]
			bi := avail
			for n := uint32(0); n < count; n++ {
				boff := sb + uint64(bi)*blockSize
				*tc = append(*tc, boff)
				if n+1 < count {
					next := r.Load(boff)
					if next == 0 {
						panic("ralloc: corrupt block free chain")
					}
					bi = uint32(next - 1)
				}
			}
			sc.refillBlocks.Add(uint64(count))
			return true
		}
	}

	// 2. A free superblock, else 3. one from expanding the used space.
	idx, ok := h.take(1)
	if !ok {
		if idx, ok = h.grow(1); !ok {
			return false
		}
		sc.grows.Add(1)
	}
	hd.initSuperblock(idx, c)
	sc.refillBlocks.Add(uint64(sizeclass.BlocksPerSuperblock(c, SuperblockBytes)))
	return true
}

// initSuperblock formats the superblock at idx for size class c and moves
// all of its blocks into the class-c cache. The size class and block size
// are persisted *before* any block is handed out: recovery needs the size
// information of every reachable block (§4.2). Both fields share the
// descriptor's cache line, so this is the single flush on Ralloc's malloc
// slow path.
func (hd *Handle) initSuperblock(idx uint32, c int) {
	h := hd.heap
	d := h.lay.descOff(idx)
	blockSize := sizeclass.ClassToSize(c)
	h.storeDesc(idx, desc{uint64(c), blockSize, 1})
	h.flush(d)
	h.fence()
	h.region.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))

	sb := h.lay.sbOff(idx)
	total := sizeclass.BlocksPerSuperblock(c, SuperblockBytes)
	tc := &hd.cache[c]
	// Append in reverse so the lowest-address blocks pop first.
	for i := total; i > 0; i-- {
		*tc = append(*tc, sb+uint64(i-1)*blockSize)
	}
}

// drain returns cached class-c blocks to their superblocks: all of them by
// default (Ralloc's published policy), or the oldest half under the
// ReturnHalf ablation (§6.3 discusses Makalu's half-return locality edge).
func (hd *Handle) drain(c int) {
	hd.drains++
	hd.heap.stats[hd.shard&hd.heap.shardMask].drains.Add(1)
	blocks := hd.cache[c]
	n := len(blocks)
	if hd.heap.cfg.ReturnHalf {
		n = len(blocks) / 2
	}
	hd.flushBlocks(c, blocks[:n])
	hd.cache[c] = append(hd.cache[c][:0], blocks[n:]...)
}

// flushBlocks is the handle's remote-free buffer: it groups the outgoing
// class-c blocks by superblock and splices each group into its superblock's
// free chain with a single anchor CAS (mimalloc-style batched remote free).
// Under the UnbatchedFree ablation each block pays its own CAS, the paper's
// published per-block path.
func (hd *Handle) flushBlocks(c int, blocks []uint64) {
	h := hd.heap
	if len(blocks) == 0 {
		return
	}
	if h.cfg.UnbatchedFree {
		for i := range blocks {
			h.freeBatch(c, hd.shard, blocks[i:i+1])
		}
		return
	}
	// Group consecutive runs of same-superblock blocks, allocation-free.
	// Refill fills the cache a superblock at a time and drains preserve
	// order, so the runs are long in practice; an interleaved cache only
	// degrades toward the per-block path, never below it.
	start := 0
	cur, _ := h.lay.descIndexOf(blocks[0])
	for i := 1; i < len(blocks); i++ {
		if idx, _ := h.lay.descIndexOf(blocks[i]); idx != cur {
			h.freeBatch(c, hd.shard, blocks[start:i])
			start, cur = i, idx
		}
	}
	h.freeBatch(c, hd.shard, blocks[start:])
}

// Flush returns every cached block to its superblock — what a thread's
// cache destructor does on clean thread exit. The handle remains usable.
func (hd *Handle) Flush() {
	hd.check()
	hd.returnAll()
}

// returnAll empties every cache (clean shutdown).
func (hd *Handle) returnAll() {
	for c := 1; c <= sizeclass.NumClasses; c++ {
		hd.flushBlocks(c, hd.cache[c])
		hd.cache[c] = nil
	}
}

// freeBatch pushes a group of blocks — all residing in the same superblock —
// back onto that superblock's internal free chain with a single CAS on the
// descriptor's anchor, and performs the resulting state transition:
// FULL→PARTIAL descriptors are pushed to the freeing handle's home shard of
// the class's partial list; a superblock that becomes entirely free is
// retired to the free index if it was FULL (possible for any class
// now that a batch can return a full superblock's worth at once), or lazily
// when later fetched from the partial list (§4.4). The group's internal links are written once, outside the retry
// loop; only the tail link is rewritten per CAS attempt, so a group of n
// blocks costs n+1 stores and one successful CAS instead of n. Free checked
// each block against its superblock's class c, which gives their size.
func (h *Heap) freeBatch(c int, shard uint32, blocks []uint64) {
	r := h.region
	sc := &h.stats[shard&h.shardMask]
	sc.freeBatches.Add(1)
	sc.freeBlocks.Add(uint64(len(blocks)))
	idx, _ := h.lay.descIndexOf(blocks[0])
	d := h.lay.descOff(idx)
	sb := h.lay.sbOff(idx)
	blockSize := sizeclass.ClassToSize(c)
	total := uint32(SuperblockBytes / blockSize)
	for i := 0; i+1 < len(blocks); i++ {
		r.Store(blocks[i], (blocks[i+1]-sb)/blockSize+1)
	}
	headBI := uint32((blocks[0] - sb) / blockSize)
	tail := blocks[len(blocks)-1]
	n := uint32(len(blocks))
	for {
		a := r.Load(d + dOffAnchor)
		st, avail, count := unpackAnchor(a)
		if count == 0 || avail == anchorAvailNone {
			r.Store(tail, 0)
		} else {
			r.Store(tail, uint64(avail)+1)
		}
		newCount := count + n
		if newCount > total {
			panic("ralloc: double free detected (free count exceeds superblock capacity)")
		}
		newState := uint64(statePartial)
		if newCount == total {
			newState = stateEmpty
		}
		if !r.CAS(d+dOffAnchor, a, packAnchor(newState, headBI, newCount)) {
			continue
		}
		if st == stateFull {
			if newState == stateEmpty {
				h.retireDesc(idx)
			} else {
				h.pushPartial(c, shard, idx)
			}
		}
		return
	}
}

// ----------------------------------------------------------------------
// Large allocations (§4.4): any request above the largest size class is
// rounded up to a whole number of superblocks and satisfied by the lowest run
// of that many free superblocks, or else by expanding the used space. The
// run length and actual size are persisted in the first descriptor.

func (h *Heap) mallocLarge(size uint64) uint64 {
	if size > h.lay.sbSize {
		return 0 // and the round-up below cannot wrap
	}
	k := uint32((size + SuperblockBytes - 1) / SuperblockBytes)
	first, ok := h.take(k)
	if !ok {
		if first, ok = h.grow(k); !ok {
			return 0
		}
	}
	h.initLarge(first, k, size)
	return h.lay.sbOff(first)
}

// initLarge persists the run metadata. Continuation markers are persisted
// (and fenced) before the first descriptor so that, at any crash point,
// either the whole run is recognizable or the first descriptor still looks
// uninitialized and the run is swept as free superblocks.
func (h *Heap) initLarge(first, k uint32, size uint64) {
	r := h.region
	for i := first + 1; i < first+k; i++ {
		d := h.lay.descOff(i)
		h.storeDesc(i, desc{cls: contClass})
		r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
		h.flush(d)
	}
	if k > 1 {
		h.fence()
	}
	d := h.lay.descOff(first)
	h.storeDesc(first, desc{0, size, uint64(k)})
	r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
	h.flush(d)
	h.fence()
}

// freeLarge splits a large block into its constituent superblocks and marks
// them free (§4.4). The run markers are cleared persistently first so that a
// crash cannot misread a half-freed run. Heap.class reads 0 for a free
// superblock too, and for all of them before Recover: the descriptor must
// confirm the head before anything is cleared.
func (h *Heap) freeLarge(idx uint32, off uint64) {
	if off != h.lay.sbOff(idx) {
		panic(fmt.Sprintf("ralloc: Free(%#x) is not the start of a large block", off))
	}
	d := h.loadDesc(idx)
	if !d.largeHead() {
		panic(fmt.Sprintf("ralloc: Free(%#x): block is not allocated", off))
	}
	k := uint32(d.numSB)
	for i := idx; i < idx+k; i++ {
		h.storeDesc(i, desc{})
		h.flush(h.lay.descOff(i))
	}
	h.fence()
	for i := idx; i < idx+k; i++ {
		h.region.Store(h.lay.descOff(i)+dOffAnchor, packAnchor(stateEmpty, anchorAvailNone, 0))
	}
	h.release(idx, k)
}

// Stats returns the handle's operation counters (mallocs, frees, cache
// refills, cache drains).
func (hd *Handle) Stats() (mallocs, frees, refills, drains uint64) {
	return hd.mallocs, hd.frees, hd.refills, hd.drains
}
