package ralloc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Recovery (§4.5) employs a tracing garbage collector to identify all blocks
// reachable from the persistent roots, then reconstructs every piece of
// transient metadata: anchors, block free chains, partial lists and the
// superblock free list. Because the size of every block is determined by its
// superblock's persisted size class, a single pointer suffices to tell how
// much memory it keeps alive.
//
// There is one engine, (*Heap).gc — one trace, one sweep, one write-back of
// the metadata and of the superblocks and descriptors below the used
// watermark — behind four entry points: Trace (the trace alone, read-only),
// Recover (drop the lost thread caches, one worker), RecoverParallel(w) (the
// same with w workers, §6.4's future work) and Manager.Collect (shared.go,
// §4.5.2: one worker, live processes' caches pinned, handles kept).
// Recover uses one worker on purpose: the serving stack's parallelism is
// across shards (cluster.Open recovers each shard heap on its own goroutine),
// and one worker already overlaps its misses — drain scans in batches.

// Filter enumerates the pointers inside a block by calling g.Visit for each
// of them (§4.5.1). A nil Filter selects conservative tracing: every 64-bit
// aligned word carrying the off-holder pattern is treated as a potential
// pointer. User-provided filters make tracing precise, faster, and able to
// handle nonstandard pointer representations (such as the counter-tagged
// offsets used by the lock-free data structures).
type Filter func(g *GC, off uint64)

// GC is one recovery worker's context, and what filter functions are handed.
// The workers of one engine run share the visited bitmap, marked with CAS;
// each keeps its own pending stack and its own tallies.
type GC struct {
	h       *Heap
	used    uint64 // snapshot of the used watermark
	visited []uint64
	pending []traceItem
	stats   RecoveryStats // this worker's share; summed by the engine
}

// traceItem is a marked block awaiting its scan with filter f.
type traceItem struct {
	off uint64
	f   Filter
}

func (g *GC) bit(off uint64) (word, mask uint64) {
	i := (off - g.h.lay.sbStart) / 8
	return i / 64, uint64(1) << (i % 64)
}

func (g *GC) marked(off uint64) bool {
	w, m := g.bit(off)
	return atomic.LoadUint64(&g.visited[w])&m != 0
}

// mark sets off's bit and reports whether this call was the one that set it.
func (g *GC) mark(off uint64) bool {
	w, m := g.bit(off)
	for {
		old := atomic.LoadUint64(&g.visited[w])
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&g.visited[w], old, old|m) {
			return true
		}
	}
}

// blockInfo validates a candidate pointer and returns the block it denotes.
// Interior pointers are not supported (§4.5): off must be a block boundary.
func (g *GC) blockInfo(off uint64) (size uint64, ok bool) {
	h := g.h
	if off < h.lay.sbStart || off >= h.lay.sbStart+g.used {
		return 0, false
	}
	idx, _ := h.lay.descIndexOf(off)
	d := h.lay.descOff(idx)
	r := h.region
	// One counted group: Load's locked add between the two reads would serialise them.
	offs, desc := [2]uint64{d + dOffClass, d + dOffBlockSize}, [2]uint64{}
	r.LoadEach(offs[:], desc[:])
	cls, bs := desc[0], desc[1]
	switch {
	case cls == contClass:
		// Middle of a large run: not a valid block pointer.
		return 0, false
	case cls == 0:
		numSB := r.Load(d + dOffNumSB)
		if bs == 0 || numSB == 0 {
			return 0, false // uninitialized superblock
		}
		if off != h.lay.sbOff(idx) {
			return 0, false
		}
		// Size and run length are persistent words that a torn write or a
		// hostile image can set to anything: a run that leaves the used
		// region, or a size that leaves the run, is no block (the sweep
		// frees it), or a conservative scan of it would walk off the heap.
		if numSB > (h.lay.sbStart+g.used-off)/SuperblockBytes || bs > numSB*SuperblockBytes {
			return 0, false
		}
		return bs, true
	case cls <= sizeclass.NumClasses:
		if bs != sizeclass.ClassToSize(int(cls)) {
			return 0, false // stale or torn descriptor
		}
		if (off-h.lay.sbOff(idx))%bs != 0 {
			return 0, false
		}
		return bs, true
	default:
		return 0, false
	}
}

// pin marks the block at off reachable, if it is a valid block, and tallies
// it; it reports whether this call was the one that marked it.
func (g *GC) pin(off uint64) bool {
	size, ok := g.blockInfo(off)
	if !ok || !g.mark(off) {
		return false
	}
	g.stats.ReachableBlocks++
	g.stats.ReachableBytes += size
	return true
}

// Visit marks the block at off reachable (if it is a valid block) and queues
// it for scanning with filter f (nil = conservative). Filters call Visit for
// every pointer they enumerate; Visit is idempotent per block.
func (g *GC) Visit(off uint64, f Filter) {
	g.stats.TraceWork++
	if g.pin(off) {
		g.pending = append(g.pending, traceItem{off, f})
	}
}

// Again queues the marked block at off for one more scan, by f: a filter takes
// a large block in instalments, so that what it visits does not pile up.
func (g *GC) Again(off uint64, f Filter) { g.pending = append(g.pending, traceItem{off, f}) }

// conservative is the default filter (§4.5.1 Fig. 3): scan every aligned
// word of the block and visit anything that decodes as an off-holder.
func (g *GC) conservative(off uint64) {
	size, ok := g.blockInfo(off)
	if !ok {
		return
	}
	r := g.h.region
	end := off + size&^7
	g.stats.TraceWork += (end - off) / 8
	for o := off; o < end; o += 8 {
		if t, tok := pptr.Unpack(o, r.Load(o)); tok {
			g.Visit(t, nil)
		}
	}
}

// drain scans pending blocks until none are left anywhere: it is the one
// loop that pops trace work. With a pool (several workers) a worker whose
// stack grows past donateThreshold shares the older half, and one that runs
// dry blocks on the pool until work arrives or every worker is idle.
// A trace is latency-bound, one dependent cache/TLB miss per block of a chain,
// so drain pops traceBatch blocks and reads the first word of each back to
// back (LoadEach: their misses overlap; the values are dropped, the filters
// load from cache), then scans them. What a batch pushes is the next batch.
func (g *GC) drain(p *tracePool) {
	const traceBatch = 16
	var batch [traceBatch]traceItem
	var offs, words [traceBatch]uint64
	for {
		n := len(g.pending)
		if n == 0 {
			if p == nil || !p.take(g) {
				return
			}
			continue
		}
		if p != nil && n > donateThreshold {
			p.donate(g.pending[:n/2])
			n = copy(g.pending, g.pending[n/2:])
		}
		k := copy(batch[:], g.pending[n-min(n, traceBatch):n])
		g.pending = g.pending[:n-k]
		for i, it := range batch[:k] {
			offs[i] = it.off
		}
		g.h.region.LoadEach(offs[:k], words[:k])
		for _, it := range batch[:k] {
			if it.f == nil {
				g.conservative(it.off)
			} else {
				it.f(g, it.off)
			}
		}
	}
}

// each runs f once per worker context and returns when all have finished:
// concurrently for several workers, on the calling goroutine for one.
func each(gcs []*GC, f func(*GC)) {
	if len(gcs) == 1 {
		f(gcs[0])
		return
	}
	var wg sync.WaitGroup
	for _, g := range gcs {
		wg.Add(1)
		go func(g *GC) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
}

// trace performs steps 4–5: mark every block reachable from the persistent
// roots (through their registered filters) and from whatever pin marks, with
// one context per worker over a shared bitmap. It writes nothing to the
// region. Seeds are marked before any worker starts and workers only ever
// receive already-marked blocks, so every block is scanned exactly once.
func (h *Heap) trace(workers int, pin func(*GC)) []*GC {
	used := h.SBUsed()
	visited := make([]uint64, (used/8+63)/64)
	gcs := make([]*GC, workers)
	for i := range gcs {
		gcs[i] = &GC{h: h, used: used, visited: visited}
	}
	if pin != nil {
		pin(gcs[0])
	}
	for i := 0; i < NumRoots; i++ {
		slot := rootOff(i)
		target, ok := pptr.Unpack(slot, h.region.Load(slot))
		if !ok {
			continue
		}
		h.mu.Lock()
		f := h.filters[i]
		h.mu.Unlock()
		gcs[0].Visit(target, f)
	}
	var pool *tracePool
	if workers > 1 {
		pool = newTracePool(workers)
	}
	each(gcs, func(g *GC) { g.drain(pool) })
	return gcs
}

// Trace runs only the tracing phase of recovery — marking all blocks
// reachable from the persistent roots with the currently registered filters
// — without reconstructing any metadata. It is read-only and safe to call
// repeatedly, e.g. to audit what a given filter configuration would keep
// before committing to Recover (whose sweep overwrites the first word of
// every free block).
func (h *Heap) Trace() (blocks, bytes uint64) {
	s := h.trace(1, nil)[0].stats
	return s.ReachableBlocks, s.ReachableBytes
}

// RecoveryStats summarizes what Recover found and rebuilt.
//
// TraceWork and SweepUnits are deterministic work counters: for a fixed heap
// image and filter registration they do not depend on scheduling, worker
// count or wall time, so linearity properties of recovery cost can be
// asserted on them without flaky clock-ratio comparisons.
type RecoveryStats struct {
	ReachableBlocks uint64
	ReachableBytes  uint64
	FreeSuperblocks uint64 // retired to the superblock free list
	PartialSBs      uint64
	FullSBs         uint64
	LargeRuns       uint64
	TraceWork       uint64 // pointer candidates examined + words scanned (trace)
	SweepUnits      uint64 // superblocks/runs processed by the sweep
	TraceTime       time.Duration
	SweepTime       time.Duration
	Duration        time.Duration
}

// Add accumulates o into s field by field: the engine's merge of its
// workers' shares, and a cluster's sum over its shards.
func (s *RecoveryStats) Add(o RecoveryStats) {
	s.ReachableBlocks += o.ReachableBlocks
	s.ReachableBytes += o.ReachableBytes
	s.FreeSuperblocks += o.FreeSuperblocks
	s.PartialSBs += o.PartialSBs
	s.FullSBs += o.FullSBs
	s.LargeRuns += o.LargeRuns
	s.TraceWork += o.TraceWork
	s.SweepUnits += o.SweepUnits
	s.TraceTime += o.TraceTime
	s.SweepTime += o.SweepTime
	s.Duration += o.Duration
}

// Recover performs offline post-crash recovery (the paper's recover()):
// trace all blocks reachable from the persistent roots, then reconstruct all
// allocator metadata so that all and only the reachable blocks are allocated
// — the recoverability criterion. Filters must have been registered (via
// GetRoot) beforehand. The heap stays dirty until a clean Close, so a crash
// during recovery simply causes recovery to run again.
func (h *Heap) Recover() (RecoveryStats, error) {
	return h.RecoverParallel(1)
}

// RecoverParallel is Recover with the trace and the sweep each spread over
// the given number of worker goroutines (at least one). Every worker count
// rebuilds the same heap and reports the same counters.
func (h *Heap) RecoverParallel(workers int) (RecoveryStats, error) {
	h.dropHandles()
	if workers < 1 {
		workers = 1
	}
	return h.gc(workers, nil), nil
}

// gc is the recovery engine, steps 3–10 of §4.5: trace, reset the global
// lists, sweep every used superblock keeping exactly the traced blocks,
// write everything back. pin, if not nil, marks blocks that are allocated
// although no persistent root reaches them, before the roots are traced.
func (h *Heap) gc(workers int, pin func(*GC)) RecoveryStats {
	start := time.Now()
	gcs := h.trace(workers, pin)
	traceDone := time.Now()

	// Step 3, on the sweep side of the timestamp.
	h.resetLists()
	h.sweep(gcs)
	h.writeBack()

	var stats RecoveryStats
	for _, g := range gcs {
		stats.Add(g.stats)
	}
	end := time.Now()
	stats.TraceTime = traceDone.Sub(start)
	stats.SweepTime = end.Sub(traceDone)
	stats.Duration = end.Sub(start)
	return stats
}

// writeBack is step 10: everything recovery rebuilt becomes durable. Recovery
// stores only to the metadata block (resetLists, the list heads), to free
// blocks of superblocks below the used watermark (sweepSmall) and to those
// superblocks' descriptors (sweepUnit, retireDesc, the list pushes). The
// first two are contiguous, so two ranges cover it, and the cost follows the
// heap's contents, not its capacity.
func (h *Heap) writeBack() {
	n := uint64(h.usedDescs())
	h.flushRange(0, MetaBytes+n*SuperblockBytes)
	h.flushRange(h.lay.descOff(0), n*DescBytes)
	h.fence()
}

// resetLists clears the superblock free list and every partial-list shard
// slot — all MaxShards of them, not just the active h.shards, so that stale
// heads left by a crashed session that ran with a larger shard count can
// never leak descriptors into a later remap.
func (h *Heap) resetLists() {
	r := h.region
	r.Store(offFreeHead, pptr.HeadNil)
	for c := 0; c <= sizeclass.NumClasses; c++ {
		r.Store(classEntryOff(c)+8, pptr.HeadNil) // reserved pre-v2 slot
		for s := uint32(0); s < MaxShards; s++ {
			r.Store(partialHeadOff(c, s), pptr.HeadNil)
		}
	}
}

// unitLen returns how many of the n used descriptors the sweep unit starting
// at descriptor i spans: the length of a large run headed there, else 1.
// numSB is a persistent word that a torn write or a hostile image can set to
// anything, so it is compared in 64 bits before narrowing: a run claiming
// more than the n-i descriptors left is clamped (sweepUnit then frees it),
// and the result is never 0, so every scan over units advances.
func (h *Heap) unitLen(i, n uint32) uint32 {
	r, d := h.region, h.lay.descOff(i)
	numSB := r.Load(d + dOffNumSB)
	if r.Load(d+dOffClass) != 0 || r.Load(d+dOffBlockSize) == 0 || numSB == 0 {
		return 1
	}
	if numSB > uint64(n-i) {
		return n - i
	}
	return uint32(numSB)
}

// sweep performs steps 6–9: one cheap scan partitions the used descriptors
// into units (a large run is one unit), then the workers pull units from a
// shared cursor and rebuild each one's metadata. The list pushes are the
// same lock-free CASes used during normal operation.
func (h *Heap) sweep(gcs []*GC) {
	n := h.usedDescs()
	units := make([]uint32, 0, n+1) // first descriptor of each unit, then n
	for i := uint32(0); i < n; i += h.unitLen(i, n) {
		units = append(units, i)
	}
	units = append(units, n)

	var next atomic.Uint32
	each(gcs, func(g *GC) {
		for {
			u := next.Add(1) - 1
			if int(u) >= len(units)-1 {
				return
			}
			g.sweepUnit(units[u], units[u+1]-units[u])
		}
	})
}

// sweepUnit classifies the unit of count descriptors starting at first and
// rebuilds its metadata (steps 6–9); count > 1 only for a large run.
func (g *GC) sweepUnit(first, count uint32) {
	h, r := g.h, g.h.region
	g.stats.SweepUnits++
	d := h.lay.descOff(first)
	cls := r.Load(d + dOffClass)
	bs := r.Load(d + dOffBlockSize)
	numSB := r.Load(d + dOffNumSB)
	switch {
	case cls == 0 && bs > 0 && numSB > 0:
		// Large run: kept whole if its head was traced, else freed. A run
		// unitLen had to clamp has torn metadata and is freed.
		if numSB == uint64(count) && g.marked(h.lay.sbOff(first)) {
			r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
			g.stats.LargeRuns++
			return
		}
		g.retire(first, count)
	case cls == contClass:
		// Orphaned continuation (crash between persisting the run body
		// and its head, or mid-freeLarge).
		g.retire(first, 1)
	case cls >= 1 && cls <= sizeclass.NumClasses && bs == sizeclass.ClassToSize(int(cls)):
		g.sweepSmall(first, int(cls), bs)
	default:
		// Never initialized, or stale/torn metadata with no reachable
		// blocks: plain free superblock.
		g.retire(first, 1)
	}
}

// retire returns count superblocks starting at first to the free list.
func (g *GC) retire(first, count uint32) {
	for i := first; i < first+count; i++ {
		g.h.retireDesc(i)
	}
	g.stats.FreeSuperblocks += uint64(count)
}

// sweepSmall rebuilds the block free chain and anchor of a small-class
// superblock, keeping exactly the traced blocks allocated (steps 6–8).
func (g *GC) sweepSmall(i uint32, c int, bs uint64) {
	h, r := g.h, g.h.region
	d := h.lay.descOff(i)
	sb := h.lay.sbOff(i)
	total := uint32(SuperblockBytes / bs)

	var chainHead uint64 // next-field encoding: index+1, 0 = nil
	nFree := uint32(0)
	for b := total; b > 0; b-- {
		off := sb + uint64(b-1)*bs
		if g.marked(off) {
			continue
		}
		r.Store(off, chainHead)
		chainHead = uint64(b-1) + 1
		nFree++
	}
	switch {
	case nFree == total:
		g.retire(i, 1)
	case nFree == 0:
		r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
		g.stats.FullSBs++
	default:
		r.Store(d+dOffAnchor, packAnchor(statePartial, uint32(chainHead-1), nFree))
		// Deterministic shard placement (index mod shard count): the
		// per-shard membership does not depend on the worker count.
		h.pushPartial(c, h.partialShardOf(i), i)
		g.stats.PartialSBs++
	}
}

// ----------------------------------------------------------------------
// Introspection used by tests.

// HeapCheck describes an allocator-metadata consistency snapshot. The heap
// must be quiescent (no concurrent operations).
type HeapCheck struct {
	FreeListLen    int
	PartialLens    [sizeclass.NumClasses + 1]int
	FreeBlocks     uint64 // blocks on superblock-internal chains
	AllocatedBlks  uint64 // blocks not on any chain (allocated or cached)
	UsedSuperblcks uint32
}

// CheckInvariants walks all allocator metadata and verifies structural
// invariants: anchors agree with their chains, chain entries are in-bounds
// and distinct, and no superblock appears on two lists. It returns the
// snapshot and the first violation found, if any. Quiescence is required.
func (h *Heap) CheckInvariants() (HeapCheck, error) {
	r := h.region
	var chk HeapCheck
	n := h.usedDescs()
	chk.UsedSuperblcks = n

	onFree := make(map[uint32]bool)
	_, idx, ok := pptr.UnpackHead(r.Load(offFreeHead))
	for ok {
		if onFree[idx] {
			return chk, fmt.Errorf("superblock %d appears twice on the free list", idx)
		}
		if idx >= n {
			return chk, fmt.Errorf("free list contains out-of-range superblock %d", idx)
		}
		onFree[idx] = true
		chk.FreeListLen++
		next := r.Load(h.lay.descOff(idx) + dOffNextFree)
		if next == 0 {
			break
		}
		idx = uint32(next - 1)
	}

	onPartial := make(map[uint32]int)
	for c := 1; c <= sizeclass.NumClasses; c++ {
		// Walk every shard slot, active or not: a descriptor stranded on
		// an inactive shard's list is a leak and must be reported.
		for s := uint32(0); s < MaxShards; s++ {
			_, idx, ok := pptr.UnpackHead(r.Load(partialHeadOff(c, s)))
			if ok && s >= h.shards {
				return chk, fmt.Errorf("superblock %d stranded on inactive shard %d of class %d", idx, s, c)
			}
			for ok {
				if prev, dup := onPartial[idx]; dup {
					return chk, fmt.Errorf("superblock %d on partial lists %d and %d", idx, prev, c)
				}
				if onFree[idx] {
					return chk, fmt.Errorf("superblock %d on both free and partial lists", idx)
				}
				if cls := r.Load(h.lay.descOff(idx) + dOffClass); cls != uint64(c) {
					return chk, fmt.Errorf("superblock %d has class %d but is on partial list %d", idx, cls, c)
				}
				onPartial[idx] = c
				chk.PartialLens[c]++
				next := r.Load(h.lay.descOff(idx) + dOffNextPartial)
				if next == 0 {
					break
				}
				idx = uint32(next - 1)
			}
		}
	}

	for i := uint32(0); i < n; i++ {
		d := h.lay.descOff(i)
		cls := r.Load(d + dOffClass)
		bs := r.Load(d + dOffBlockSize)
		if cls == 0 || cls == contClass {
			if cls == 0 && bs > 0 {
				// Allocated large run head.
				chk.AllocatedBlks++
				i += h.unitLen(i, n) - 1
			}
			continue
		}
		if cls > sizeclass.NumClasses {
			return chk, fmt.Errorf("superblock %d has invalid class %d", i, cls)
		}
		if bs != sizeclass.ClassToSize(int(cls)) {
			return chk, fmt.Errorf("superblock %d class %d has block size %d", i, cls, bs)
		}
		total := uint32(SuperblockBytes / bs)
		state, avail, count := unpackAnchor(r.Load(d + dOffAnchor))
		if count > total {
			return chk, fmt.Errorf("superblock %d count %d exceeds capacity %d", i, count, total)
		}
		switch state {
		case stateFull:
			if count != 0 {
				return chk, fmt.Errorf("superblock %d FULL with count %d", i, count)
			}
		case stateEmpty:
			if count != total {
				return chk, fmt.Errorf("superblock %d EMPTY with count %d/%d", i, count, total)
			}
		}
		// Walk the chain: exactly count distinct in-range entries.
		seen := make(map[uint32]bool, count)
		bi := avail
		for k := uint32(0); k < count; k++ {
			if bi >= total {
				return chk, fmt.Errorf("superblock %d chain leaves bounds at %d", i, bi)
			}
			if seen[bi] {
				return chk, fmt.Errorf("superblock %d chain revisits block %d", i, bi)
			}
			seen[bi] = true
			if k+1 < count {
				next := r.Load(h.lay.sbOff(i) + uint64(bi)*bs)
				if next == 0 {
					return chk, fmt.Errorf("superblock %d chain ends early at %d/%d", i, k+1, count)
				}
				bi = uint32(next - 1)
			}
		}
		chk.FreeBlocks += uint64(count)
		chk.AllocatedBlks += uint64(total - count)
	}
	return chk, nil
}
