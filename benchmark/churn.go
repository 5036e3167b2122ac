package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// alloc_churn: the allocator alone, in process. Each goroutine owns a Handle
// and a table of live blocks; a step frees the block in a pseudo-random slot
// (checking the stamp written when it was allocated) and allocates a new one
// of a shbench-skewed size. Every 8th freed block is handed to the other
// goroutine instead (larson-style remote free).

// paperCost is the paper's persistence cost model for the allocator rows:
// statistics-only region, 120 ns per flushed line, 30 ns per fence.
var paperCost = pmem.Config{Mode: pmem.ModeFast, FlushLatency: 120 * time.Nanosecond, FenceLatency: 30 * time.Nanosecond}

const churnHeapBytes = 64 << 20

type churnStep struct {
	slot uint16
	size uint16
}

// genChurn generates n steps over the given number of slots: 95 % of sizes
// in 64..400 B skewed small (the lesser of two draws), 5 % in 1..2 KB.
func genChurn(seed int64, g, slots, n int) []churnStep {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(g)*104729 + 17))
	steps := make([]churnStep, n)
	for i := range steps {
		size := 64 + min(rng.Intn(337), rng.Intn(337))
		if rng.Intn(20) == 0 {
			size = 1024 + rng.Intn(1025)
		}
		steps[i] = churnStep{slot: uint16(rng.Intn(slots)), size: uint16(size)}
	}
	return steps
}

type liveBlock struct {
	off, stamp uint64
	size       uint64
}

type handoff struct{ off, stamp uint64 }

// spsc is a single-producer single-consumer ring for handed-over blocks.
type spsc struct {
	buf  [1024]handoff
	_    [64]byte
	head atomic.Uint64 // next to pop (consumer)
	_    [56]byte
	tail atomic.Uint64 // next to push (producer)
}

func (q *spsc) push(h handoff) bool {
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[t%uint64(len(q.buf))] = h
	q.tail.Store(t + 1)
	return true
}

func (q *spsc) pop() (handoff, bool) {
	h := q.head.Load()
	if h == q.tail.Load() {
		return handoff{}, false
	}
	v := q.buf[h%uint64(len(q.buf))]
	q.head.Store(h + 1)
	return v, true
}

// churner is one goroutine's side of the churn. onAlloc, if set, runs after
// each block is stamped (the crash variant persists the block there).
type churner struct {
	id      int
	hd      alloc.Handle
	region  *pmem.Region
	live    []liveBlock
	steps   []churnStep
	pos     int
	n       uint64 // blocks allocated so far: the stamp counter
	inbox   *spsc  // blocks the other goroutine hands us to free
	outbox  *spsc
	failed  uint64 // stamp mismatches and failed mallocs
	onAlloc func(slot int, b liveBlock)
}

func (c *churner) free(off, stamp uint64) {
	if c.region.Load(off) != stamp {
		c.failed++
	}
	c.hd.Free(off)
}

func (c *churner) step() {
	st := c.steps[c.pos%len(c.steps)]
	c.pos++
	old := c.live[st.slot]
	off := c.hd.Malloc(uint64(st.size))
	if off == 0 {
		c.failed++
		return
	}
	b := liveBlock{off: off, stamp: mix64(uint64(c.id)<<56 | c.n), size: uint64(st.size)}
	c.n++
	c.region.Store(off, b.stamp)
	c.live[st.slot] = b
	if c.onAlloc != nil {
		c.onAlloc(int(st.slot), b)
	}
	if old.off != 0 {
		if c.n%8 != 0 || c.outbox == nil || !c.outbox.push(handoff{old.off, old.stamp}) {
			c.free(old.off, old.stamp)
		}
	}
	c.drain()
}

func (c *churner) drain() {
	for c.inbox != nil {
		h, ok := c.inbox.pop()
		if !ok {
			return
		}
		c.free(h.off, h.stamp)
	}
}

func (c *churner) liveBytes() (n uint64) {
	for _, b := range c.live {
		n += b.size
	}
	return n
}

// churnBatch is how many steps a timed batch holds, to match the socket
// workloads' 16-deep batches; one batch in churnSample is timed.
const (
	churnBatch  = 16
	churnSample = 16
)

// runWindows steps until n windows of length w have passed since t0.
func (c *churner) runWindows(t0 time.Time, w time.Duration, n int) windowed {
	out := windowed{ops: make([]uint64, n), lat: make([][]int32, n)}
	for {
		for i := 0; i < churnBatch*(churnSample-1); i++ {
			c.step()
		}
		tb := time.Now()
		for i := 0; i < churnBatch; i++ {
			c.step()
		}
		te := time.Now()
		i := int(te.Sub(t0) / w)
		if i >= n {
			return out
		}
		out.ops[i] += churnBatch * churnSample
		out.lat[i] = append(out.lat[i], int32(te.Sub(tb)))
	}
}

// churnHeap is one set-up of alloc_churn.
type churnHeap struct {
	heap    *ralloc.Heap
	handles []*ralloc.Handle
	workers []*churner
}

// together runs fn on every worker concurrently and waits.
func (h *churnHeap) together(fn func(i int, c *churner)) {
	var wg sync.WaitGroup
	for i, c := range h.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
	// Whatever was handed over after the peer's last step is freed here.
	for _, c := range h.workers {
		c.drain()
	}
}

func newChurnHeap(sc scale, steps [][]churnStep) (*churnHeap, error) {
	heap, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: churnHeapBytes,
		// One superblock at a time, so SBUsed tracks what the workload needs
		// and space_amp is not quantised by a 4 MB growth chunk.
		GrowthChunk: ralloc.SuperblockBytes,
		Pmem:        paperCost,
	})
	if err != nil {
		return nil, err
	}
	h := &churnHeap{heap: heap}
	boxes := make([]*spsc, len(steps))
	for i := range boxes {
		boxes[i] = new(spsc)
	}
	for i := range steps {
		hd := heap.NewHandle()
		h.handles = append(h.handles, hd)
		c := &churner{id: i, hd: hd, region: heap.Region(), live: make([]liveBlock, sc.churnSlots), steps: steps[i]}
		if len(steps) > 1 {
			c.inbox, c.outbox = boxes[i], boxes[(i+1)%len(steps)]
		}
		h.workers = append(h.workers, c)
	}
	h.together(func(_ int, c *churner) {
		for c.pos < sc.churnWarm {
			c.step()
		}
	})
	return h, nil
}

func runChurn(r *run) error {
	sc := r.sc
	// The system under test is this process: start its peak-RSS mark afresh
	// (5 = reset VmHWM), so that rss_mb is the peak of this workload and not
	// of whatever the process did before. Where the kernel refuses, the mark
	// simply stays where it was.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	steps := make([][]churnStep, sc.churners)
	for g := range steps {
		steps[g] = genChurn(r.opt.seed, g, sc.churnSlots, sc.ringOps)
	}

	// Rounds as in the socket workloads: a fresh heap per round, a share of
	// the windows measured on each.
	var h *churnHeap
	var setups []float64
	var m windowStats
	var mallocs, refills uint64
	n := sc.windows / sc.setups
	w := time.Duration(r.opt.seconds / float64(n*sc.setups) * float64(time.Second))
	for i := 0; i < sc.setups; i++ {
		// Every round starts from the same process memory: the previous
		// round's heap is returned to the OS, not left for the collector to
		// find at a moment of its choosing (which made rss_mb bimodal).
		h = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if h, err = newChurnHeap(sc, steps); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())

		stats := func() (m, rf uint64) {
			for _, hd := range h.handles {
				hm, _, hrf, _ := hd.Stats()
				m, rf = m+hm, rf+hrf
			}
			return
		}
		per := make([]windowed, len(h.workers))
		m0, rf0 := stats()
		cpu0 := selfCPUSeconds()
		t0 = time.Now()
		h.together(func(i int, c *churner) { per[i] = c.runWindows(t0, w, n) })
		m.cpu += selfCPUSeconds() - cpu0
		m1, rf1 := stats()
		mallocs, refills = mallocs+m1-m0, refills+rf1-rf0
		m.addWindows(per, w)
		for _, c := range h.workers {
			r.tally.ops += c.n
			r.tally.failed += c.failed
		}
	}
	r.set("setup_s", median(setups))
	r.recordWindows("setup_s", setups)
	m.total.ops = mallocs
	m.setCommon(r)
	var live uint64
	for _, c := range h.workers {
		live += c.liveBytes()
	}
	r.set("hit_ratio", 1-float64(refills)/float64(mallocs))
	r.set("space_amp", float64(h.heap.SBUsed())/float64(live))

	h = nil
	debug.FreeOSMemory()
	if err := churnCrash(r, steps[0]); err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("rss_mb", rss)
	return nil
}

// churnCrash is alloc_churn's crash: the same churn, single-threaded, on a
// crash-simulating region, with every block published in a rooted table the
// way a persistent structure would (stamp flushed, table slot flushed, fence).
// Then the region crashes with every unflushed line dropped, and the time
// from Attach to the first successful Malloc after Recover is
// restart_first_reply_ms; durable_frac is the share of published blocks that
// are still in the table with their stamp intact.
func churnCrash(r *run, steps []churnStep) error {
	sc := r.sc
	cfg := ralloc.Config{
		SBRegion:    churnHeapBytes,
		GrowthChunk: ralloc.SuperblockBytes,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, FlushLatency: paperCost.FlushLatency, FenceLatency: paperCost.FenceLatency},
	}
	heap, _, err := ralloc.Open("", cfg)
	if err != nil {
		return err
	}
	region := heap.Region()
	hd := heap.NewHandle()
	tbl := hd.Malloc(uint64(sc.churnSlots) * 8)
	if tbl == 0 {
		return fmt.Errorf("alloc_churn crash: table allocation failed")
	}
	region.Zero(tbl, uint64(sc.churnSlots)*8)
	region.FlushRange(tbl, uint64(sc.churnSlots)*8)
	heap.SetRoot(0, tbl)
	c := &churner{hd: hd, region: region, live: make([]liveBlock, sc.churnSlots), steps: steps}
	c.onAlloc = func(slot int, b liveBlock) {
		region.Flush(b.off)
		region.Store(tbl+uint64(slot)*8, b.off)
		region.Flush(tbl + uint64(slot)*8)
		region.Fence()
	}
	for c.pos < sc.churnWarm/4 {
		c.step()
	}

	leaf := func(*ralloc.GC, uint64) {}
	filter := func(g *ralloc.GC, off uint64) {
		for i := 0; i < sc.churnSlots; i++ {
			if p := region.Load(off + uint64(i)*8); p != 0 {
				g.Visit(p, leaf)
			}
		}
	}
	var firstMs []float64
	var acked, readable uint64
	t := tally{ops: c.n, failed: c.failed}
	for k := 0; k < sc.restarts; k++ {
		if err := region.Crash(); err != nil {
			return err
		}
		t0 := time.Now()
		heap2, dirty, err := ralloc.Attach(region, cfg)
		if err != nil {
			return err
		}
		if !dirty {
			return fmt.Errorf("alloc_churn crash: heap not dirty after a crash")
		}
		heap2.GetRoot(0, filter)
		st, err := heap2.Recover()
		if err != nil {
			return err
		}
		if heap2.NewHandle().Malloc(64) == 0 {
			t.failed++
		}
		t.ops++
		firstMs = append(firstMs, ms(time.Since(t0)))
		if k > 0 {
			continue
		}
		for slot, b := range c.live {
			if b.off == 0 {
				continue
			}
			acked++
			if region.Load(tbl+uint64(slot)*8) == b.off && region.Load(b.off) == b.stamp {
				readable++
			} else {
				t.failed++ // a published block is lost or corrupt
			}
		}
		if st.ReachableBlocks != acked+1 {
			t.failed++ // recovery kept more or fewer blocks than were published
		}
	}
	r.tally.add(t)
	r.set("restart_first_reply_ms", median(firstMs))
	r.set("durable_frac", float64(readable)/float64(acked))
	r.recordWindows("restart_first_reply_ms", firstMs)
	return nil
}
