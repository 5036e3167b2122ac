package ralloc

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Per-shard allocator telemetry. The Malloc/Free fast paths — thread-cache
// hit, no synchronization — are deliberately uninstrumented: Ralloc's whole
// point is that the common case costs nothing, and a shared counter there
// would reintroduce exactly the cache-line traffic the sharded lists remove.
// Counters live on the slow paths only (cache refill, cache drain, remote-
// free batches, region growth), so alloc/free volume is reported at
// refill/return granularity. Each shard's block is one padded cache line;
// handles homed on different shards never false-share.

// shardCounters is one shard's slow-path counter block (64 bytes).
type shardCounters struct {
	refills      atomic.Uint64 // cache refills served (any source)
	refillBlocks atomic.Uint64 // blocks acquired from global lists/region
	steals       atomic.Uint64 // refills served by another shard's list
	grows        atomic.Uint64 // region expansions
	drains       atomic.Uint64 // cache overflows returned to superblocks
	freeBatches  atomic.Uint64 // anchor-CAS batches (one per SB group)
	freeBlocks   atomic.Uint64 // blocks returned inside those batches
	_            [8]byte
}

// ShardStats is a point-in-time copy of one shard's counters plus a bounded
// estimate of its partial-list population.
type ShardStats struct {
	Refills      uint64
	RefillBlocks uint64
	Steals       uint64
	Grows        uint64
	Drains       uint64
	FreeBatches  uint64
	FreeBlocks   uint64
	// PartialSBs counts descriptors on this shard's partial lists across
	// all size classes, from a bounded lock-free walk: concurrent pushes
	// and pops can skew it, and the walk stops at a safety cap, so it is
	// an observability estimate, never an invariant.
	PartialSBs int
}

// Add accumulates o into s field by field — the one sum every aggregate view
// (a heap's total, a cluster's per-shard roll-up) is built from.
func (s *ShardStats) Add(o ShardStats) {
	s.Refills += o.Refills
	s.RefillBlocks += o.RefillBlocks
	s.Steals += o.Steals
	s.Grows += o.Grows
	s.Drains += o.Drains
	s.FreeBatches += o.FreeBatches
	s.FreeBlocks += o.FreeBlocks
	s.PartialSBs += o.PartialSBs
}

// ShardStatFields describes each counter everywhere it is shown, in Values
// order: Key is its name in INFO allocator, the rest its /metrics family.
var ShardStatFields = [...]struct{ Key, metric, typ, help string }{
	{"refills", "ralloc_allocator_refills_total", "counter", "Thread-cache refills per shard."},
	{"refill_blocks", "ralloc_allocator_refill_blocks_total", "counter", "Blocks acquired from global lists per shard."},
	{"steals", "ralloc_allocator_steals_total", "counter", "Refills served by stealing from another shard."},
	{"grows", "ralloc_allocator_grows_total", "counter", "Superblock-region expansions per shard."},
	{"drains", "ralloc_allocator_drains_total", "counter", "Thread-cache overflow drains per shard."},
	{"free_batches", "ralloc_allocator_free_batches_total", "counter", "Batched remote frees (one anchor CAS per superblock group)."},
	{"free_blocks", "ralloc_allocator_free_blocks_total", "counter", "Blocks returned via remote-free batches."},
	{"partial_sbs", "ralloc_allocator_partial_superblocks", "gauge", "Partial-list descriptors per shard (bounded estimate)."},
}

// Values returns the counters in ShardStatFields order.
func (s ShardStats) Values() [len(ShardStatFields)]uint64 {
	return [...]uint64{s.Refills, s.RefillBlocks, s.Steals, s.Grows, s.Drains, s.FreeBatches, s.FreeBlocks, uint64(s.PartialSBs)}
}

// partialWalkCap bounds ShardStats' list walks: the Treiber links are
// mutated concurrently, so an unlucky snapshot could chase a stale chain;
// capping the walk keeps a /metrics scrape O(1) regardless.
const partialWalkCap = 1 << 14

// ShardStats snapshots every shard's counters. Safe during live traffic.
func (h *Heap) ShardStats() []ShardStats {
	out := make([]ShardStats, h.shards)
	for s := range out {
		c := &h.stats[s]
		out[s] = ShardStats{
			Refills:      c.refills.Load(),
			RefillBlocks: c.refillBlocks.Load(),
			Steals:       c.steals.Load(),
			Grows:        c.grows.Load(),
			Drains:       c.drains.Load(),
			FreeBatches:  c.freeBatches.Load(),
			FreeBlocks:   c.freeBlocks.Load(),
			PartialSBs:   h.partialLenBounded(uint32(s)),
		}
	}
	return out
}

// partialLenBounded walks shard s's per-class partial lists under the
// global walk cap.
func (h *Heap) partialLenBounded(s uint32) int {
	n, budget := 0, partialWalkCap
	for c := 1; c <= sizeclass.NumClasses && budget > 0; c++ {
		got := h.listLenBounded(partialHeadOff(c, s), dOffNextPartial, budget)
		n += got
		budget -= got
	}
	return n
}

// listLenBounded walks a descriptor list under an iteration cap, so it is
// safe to call during concurrent mutation (the count is approximate; the
// walk always ends).
func (h *Heap) listLenBounded(headOff, linkOff uint64, max int) int {
	n := 0
	_, idx, ok := pptr.UnpackHead(h.region.Load(headOff))
	for ok && n < max {
		n++
		next := h.region.Load(h.lay.descOff(idx) + linkOff)
		if next == 0 {
			break
		}
		idx = uint32(next - 1)
	}
	return n
}

// Collect implements obs.Collector: the allocator's /metrics families,
// labeled by shard, plus heap-level gauges.
func (h *Heap) Collect(e *obs.Emitter) {
	EmitShardStats(e, h.ShardStats(), h.SBUsed())
}

// EmitShardStats writes the allocator families for shards (one series per
// index, labeled "shard") and the used-bytes gauge. A cluster passes its
// heaps' counters summed index by index, so one heap and several emit the
// same families with the same label sets.
func EmitShardStats(e *obs.Emitter, shards []ShardStats, sbUsed uint64) {
	vals := make([][len(ShardStatFields)]uint64, len(shards))
	for i, s := range shards {
		vals[i] = s.Values()
	}
	for f, m := range ShardStatFields {
		e.Family(m.metric, m.typ, m.help)
		for i := range shards {
			e.Value(m.metric, float64(vals[i][f]), "shard", strconv.Itoa(i))
		}
	}
	e.Single("ralloc_allocator_sb_used_bytes", "gauge", "Used portion of the superblock region.", float64(sbUsed))
}
