package ralloc

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Recovery (§4.5) employs a tracing garbage collector to identify all blocks
// reachable from the persistent roots, then reconstructs every piece of
// transient metadata: anchors, block free chains, partial lists, the
// free-superblock index and the class mirror. Because the size of every
// block is determined by its superblock's persisted size class, a single
// pointer suffices to tell how much memory it keeps alive (the trace reads
// the descriptor: the mirror is 0 until the sweep writes it).
//
// Recovery's output is as transient as the metadata normal operation writes
// (lists.go): the heap stays dirty until a clean Close persists the region,
// so a later crash runs recovery again, which rebuilds anchors, chains and
// list heads from scratch. Recovery writes back only what the next trace and
// sweep read: the class, block size and run length of each descriptor it
// retires (a stale run length would make the next sweep free a superblock
// since handed to a size class), behind one fence.
//
// There is one engine, (*Heap).gc — one trace, one sweep, one fence — behind
// four entry points: Trace (the trace alone, read-only), Recover (drop the
// lost thread caches, one worker), RecoverParallel(w) (the same with w
// workers, §6.4's future work) and Manager.Collect (shared.go, §4.5.2: one
// worker, live processes' caches pinned, handles kept).
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
// concurrently for several workers, on the calling goroutine for one. A
// worker's panic (a store hook's simulated power failure, say) is raised
// again on the calling goroutine once every worker has stopped, as it would
// be with one worker.
func each(gcs []*GC, f func(*GC)) {
	if len(gcs) == 1 {
		f(gcs[0])
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var failure any
	for _, g := range gcs {
		wg.Add(1)
		go func(g *GC) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { failure = p })
				}
			}()
			f(g)
		}(g)
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
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
	each(gcs, func(g *GC) {
		if pool != nil {
			defer pool.leave()
		}
		g.drain(pool)
	})
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
// TraceWork, SweepUnits and Flushes are deterministic work counters: for a
// fixed heap image and filter registration they do not depend on
// scheduling, worker count or wall time, so linearity properties of recovery
// cost can be asserted on them without flaky clock-ratio comparisons.
type RecoveryStats struct {
	ReachableBlocks uint64
	ReachableBytes  uint64
	FreeSuperblocks uint64 // retired: marked free in the index
	PartialSBs      uint64
	FullSBs         uint64
	LargeRuns       uint64
	TraceWork       uint64 // pointer candidates examined + words scanned (trace)
	SweepUnits      uint64 // superblocks/runs processed by the sweep
	Flushes         uint64 // lines written back: the descriptors the sweep retired
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
	s.Flushes += o.Flushes
	s.TraceTime += o.TraceTime
	s.SweepTime += o.SweepTime
	s.Duration += o.Duration
}

// Recover performs offline post-crash recovery (the paper's recover()):
// trace all blocks reachable from the persistent roots, then reconstruct all
// allocator metadata so that all and only the reachable blocks are allocated
// — the recoverability criterion. Filters must have been registered (via
// GetRoot) beforehand. The heap stays dirty until a clean Close, so a crash
// during or after recovery simply causes recovery to run again.
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
// fence. pin, if not nil, marks blocks that are allocated although no
// persistent root reaches them, before the roots are traced.
func (h *Heap) gc(workers int, pin func(*GC)) RecoveryStats {
	start := time.Now()
	gcs := h.trace(workers, pin)
	traceDone := time.Now()

	// Step 3, on the sweep side of the timestamp.
	h.resetLists()
	h.sweep(gcs)
	h.fence() // step 10: the retired descriptors are durable

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

// unitLen returns how many of the n used descriptors the sweep unit starting
// at descriptor i (words d) spans: the length of a large run headed there,
// else 1.
// numSB is a persistent word that a torn write or a hostile image can set to
// anything, so it is compared in 64 bits before narrowing: a run claiming
// more than the n-i descriptors left is clamped (sweepUnit then frees it),
// and the result is never 0, so every scan over units advances.
func (d desc) unitLen(i, n uint32) uint32 {
	if !d.largeHead() {
		return 1
	}
	return uint32(min(d.numSB, uint64(n-i)))
}

// sweep performs steps 6–9: one cheap scan partitions the used descriptors
// into units (a large run is one unit), then the workers pull units from a
// shared cursor and rebuild each one's metadata. The list pushes are the
// same lock-free CASes used during normal operation.
func (h *Heap) sweep(gcs []*GC) {
	n := h.usedDescs()
	// The first descriptor of each unit, then n; and that descriptor's words.
	units, descs := make([]uint32, 0, n+1), make([]desc, 0, n)
	for i := uint32(0); i < n; i += descs[len(descs)-1].unitLen(i, n) {
		units, descs = append(units, i), append(descs, h.loadDesc(i))
	}
	units = append(units, n)

	var next atomic.Uint32
	each(gcs, func(g *GC) {
		for {
			u := next.Add(1) - 1
			if int(u) >= len(units)-1 {
				return
			}
			g.sweepUnit(units[u], units[u+1]-units[u], descs[u])
		}
	})
}

// unitClass classifies the unit of count descriptors whose first
// descriptor's words are d: 0 is a large run whose head claims exactly count
// superblocks, c > 0 a superblock formatted for class c, and -1 a free one:
// never formatted, an orphaned continuation (a crash between persisting a
// run's body and its head, or mid-freeLarge), or torn.
func (d desc) unitClass(count uint32) int {
	switch {
	case d.largeHead() && d.numSB == uint64(count):
		return 0
	case d.cls >= 1 && d.cls <= sizeclass.NumClasses && d.bs == sizeclass.ClassToSize(int(d.cls)):
		return int(d.cls)
	}
	return -1
}

// sweepUnit rebuilds the metadata of the unit of count descriptors starting
// at first, whose words are d (steps 6–9); count > 1 only for a large run. A
// large run is kept whole if its head was traced, else freed.
func (g *GC) sweepUnit(first, count uint32, d desc) {
	h := g.h
	g.stats.SweepUnits++
	switch c := d.unitClass(count); {
	case c == 0 && g.marked(h.lay.sbOff(first)):
		h.region.Store(h.lay.descOff(first)+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
		h.mirror(first, count, 0)
		g.stats.LargeRuns++
	case c > 0:
		g.sweepSmall(first, c, d.bs)
	default:
		g.retire(first, count)
	}
}

// retire marks count superblocks starting at first free and writes back
// their descriptors, one line each.
func (g *GC) retire(first, count uint32) {
	h := g.h
	for i := first; i < first+count; i++ {
		h.retireDesc(i)
		h.flush(h.lay.descOff(i))
	}
	g.stats.FreeSuperblocks += uint64(count)
	if !h.cfg.NoFlush {
		g.stats.Flushes += uint64(count)
	}
}

// sweepSmall rebuilds the anchor of a small-class superblock, keeping exactly
// the traced blocks allocated (steps 6–8). It counts the free blocks first:
// a superblock with none free gets only its anchor, one with all free is
// retired, and only a partial one has its free chain rewritten.
func (g *GC) sweepSmall(i uint32, c int, bs uint64) {
	h, r := g.h, g.h.region
	d := h.lay.descOff(i)
	sb := h.lay.sbOff(i)
	total := uint32(SuperblockBytes / bs)

	nFree := total - g.marks(sb, uint64(total)*bs)
	h.mirror(i, 1, c) // retire clears it again
	switch {
	case nFree == total:
		g.retire(i, 1)
		return
	case nFree == 0:
		r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
		g.stats.FullSBs++
	default:
		r.Store(d+dOffAnchor, packAnchor(statePartial, g.chain(sb, bs, total), nFree))
		// Deterministic shard placement (index mod shard count): the
		// per-shard membership does not depend on the worker count.
		h.pushPartial(c, h.partialShardOf(i), i)
		g.stats.PartialSBs++
	}
}

// marks counts the marked blocks among the first n bytes of the superblock
// at sb. Only a block's first word is ever marked (blockInfo), so that is the
// population count of the bitmap over those bytes, whose bits start on a word.
func (g *GC) marks(sb, n uint64) uint32 {
	w, _ := g.bit(sb)
	count := 0
	for k := n / 8; k > 0; k -= min(k, 64) {
		word := atomic.LoadUint64(&g.visited[w])
		if k < 64 {
			word &= 1<<k - 1
		}
		count += bits.OnesCount64(word)
		w++
	}
	return uint32(count)
}

// chain links the free blocks of the superblock at sb into its block free
// chain, lowest first, and returns the first one's index. Like every chain,
// it is transient: nothing is written back. There is at least one free block.
func (g *GC) chain(sb, bs uint64, total uint32) uint32 {
	r := g.h.region
	var next uint64 // next-field encoding: index+1, 0 = nil
	for b := total; b > 0; b-- {
		off := sb + uint64(b-1)*bs
		if g.marked(off) {
			continue
		}
		r.Store(off, next)
		next = uint64(b)
	}
	return uint32(next - 1)
}

// ----------------------------------------------------------------------
// Introspection used by tests.

// HeapCheck describes an allocator-metadata consistency snapshot. The heap
// must be quiescent (no concurrent operations).
type HeapCheck struct {
	FreeSuperblocks int // set bits of the free-superblock index
	PartialLens     [sizeclass.NumClasses + 1]int
	FreeBlocks      uint64 // blocks on superblock-internal chains
	AllocatedBlks   uint64 // blocks not on any chain (allocated or cached)
	UsedSuperblcks  uint32
}

// CheckInvariants walks all allocator metadata and verifies structural
// invariants: anchors agree with their chains, chain entries are in-bounds
// and distinct, no superblock appears on two lists, the free index marks
// exactly the unformatted superblocks below the watermark, and the class
// mirror matches every descriptor (0 above the watermark). It returns the
// snapshot and the first violation found, if any. Quiescence is required.
func (h *Heap) CheckInvariants() (HeapCheck, error) {
	r := h.region
	var chk HeapCheck
	n := h.usedDescs()
	chk.UsedSuperblcks = n

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

	// A partial list's members have its class, so none is unformatted.
	// Nothing above the watermark is formatted: its class mirror reads 0.
	for i := uint32(0); i < h.lay.maxDescs; i++ {
		unformatted := i < n && h.loadDesc(i).unformatted()
		if free := h.free[i/64].Load()>>(i%64)&1 != 0; free != unformatted {
			return chk, fmt.Errorf("superblock %d: marked free %v, unformatted below the watermark %v", i, free, unformatted)
		} else if free {
			chk.FreeSuperblocks++
		}
		if i >= n && h.class[i] != 0 {
			return chk, fmt.Errorf("superblock %d above the watermark: class mirror %d", i, h.class[i])
		}
	}

	for i := uint32(0); i < n; i++ {
		d, w := h.lay.descOff(i), h.loadDesc(i)
		cls, bs := w.cls, w.bs
		if cls == 0 && bs > 0 {
			// Allocated large run head: mirrored 0, then contClass.
			chk.AllocatedBlks++
			k := w.unitLen(i, n)
			for j, want := i, uint8(0); j < i+k; j, want = j+1, contClass {
				if h.class[j] != want {
					return chk, fmt.Errorf("superblock %d of the run at %d: class mirror %d, want %d", j, i, h.class[j], want)
				}
			}
			i += k - 1
			continue
		}
		if uint64(h.class[i]) != cls {
			return chk, fmt.Errorf("superblock %d: class mirror %d, descriptor class %d", i, h.class[i], cls)
		}
		if cls == 0 || cls == contClass {
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
