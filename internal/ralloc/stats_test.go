package ralloc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sizeclass"
)

// sumShardStats aggregates every shard's counters for whole-heap assertions.
func sumShardStats(h *Heap) ShardStats {
	var total ShardStats
	for _, s := range h.ShardStats() {
		total.Add(s)
	}
	return total
}

// TestShardStatsCounters drives every instrumented slow path — grow, refill,
// drain, remote-free batching, cross-shard stealing — and checks the shard
// counters move. Steal forcing: handle B (home shard 1) leaves a partial
// superblock on its own shard, then handle A (home shard 0, empty cache,
// empty shard-0 lists) must steal it on refill.
func TestShardStatsCounters(t *testing.T) {
	h := testHeap(t, Config{Shards: 2, CacheCap: 8})
	hdA := h.NewHandle() // shard 0 (round-robin from 0)
	hdB := h.NewHandle() // shard 1
	if hdA.shard != 0 || hdB.shard != 1 {
		t.Fatalf("handle shards = %d,%d; want 0,1", hdA.shard, hdB.shard)
	}

	// B allocates a batch and frees half of it: the superblock stays
	// partial, and the cap-8 cache forces drains (and their free batches)
	// through the global lists onto shard 1.
	var offs []uint64
	for i := 0; i < 128; i++ {
		off := hdB.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		offs = append(offs, off)
	}
	for i := 0; i < len(offs); i += 2 {
		hdB.Free(offs[i])
	}
	hdB.drain(sizeclass.SizeToClass(64))

	mid := sumShardStats(h)
	if mid.Grows == 0 {
		t.Fatal("no region grow counted after first allocation")
	}
	if mid.Refills == 0 || mid.RefillBlocks == 0 {
		t.Fatalf("refills=%d refill_blocks=%d after allocation churn", mid.Refills, mid.RefillBlocks)
	}
	if mid.Drains == 0 || mid.FreeBatches == 0 || mid.FreeBlocks == 0 {
		t.Fatalf("drains=%d free_batches=%d free_blocks=%d after frees", mid.Drains, mid.FreeBatches, mid.FreeBlocks)
	}
	if got := sumShardStats(h).PartialSBs; got == 0 {
		t.Fatal("partial superblock not visible in ShardStats")
	}

	// A's refill finds shard 0 empty and must steal B's partial superblock;
	// the steal is charged to the thief's home shard (0).
	if hdA.Malloc(64) == 0 {
		t.Fatal("OOM on stealing refill")
	}
	after := h.ShardStats()
	if after[0].Steals == 0 {
		t.Fatalf("no steal counted on shard 0: %+v", after)
	}
	if sumShardStats(h).Refills <= mid.Refills {
		t.Fatal("stealing refill not counted as a refill")
	}
}

// TestHeapCollectMetrics renders the heap's Prometheus families through a
// registry and checks the per-shard labeling survives the text encoding.
func TestHeapCollectMetrics(t *testing.T) {
	h := testHeap(t, Config{Shards: 2})
	hd := h.NewHandle()
	for i := 0; i < 100; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM")
		}
	}
	reg := obs.NewRegistry()
	reg.Register(h)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE ralloc_allocator_refills_total counter",
		`ralloc_allocator_refills_total{shard="0"}`,
		`ralloc_allocator_refills_total{shard="1"}`,
		"# TYPE ralloc_allocator_partial_superblocks gauge",
		"ralloc_allocator_sb_used_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}
