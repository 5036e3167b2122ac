package ralloc

import (
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/pptr"
)

// BenchmarkRecoverPaperCost prices one recovery of a fragmented crashed heap
// under the paper's cost model — 120 ns a flushed line, 30 ns a fence: a
// rooted 20,000-node list sharing its superblocks with as many leaked
// blocks, leaked blocks of classes nothing live uses, and a leaked
// 4-superblock run. Each iteration crashes the heap and recovers it again;
// flushes/op is RecoveryStats.Flushes, one per superblock recovery retires.
func BenchmarkRecoverPaperCost(b *testing.B) {
	h, _, err := Open("", Config{SBRegion: 16 << 20, GrowthChunk: 1 << 20, Pmem: pmem.Config{
		Mode:         pmem.ModeCrashSim,
		FlushLatency: 120 * time.Nanosecond,
		FenceLatency: 30 * time.Nanosecond,
	}})
	if err != nil {
		b.Fatal(err)
	}
	r, hd := h.Region(), h.NewHandle()
	prev := uint64(0)
	for i := 0; i < 20000; i++ {
		n := hd.Malloc(64)
		leak := hd.Malloc([]uint64{64, 16, 320}[i%3])
		if n == 0 || leak == 0 {
			b.Fatal("OOM")
		}
		if prev == 0 {
			r.Store(n, pptr.Nil)
		} else {
			r.Store(n, pptr.Pack(n, prev))
		}
		r.Flush(n)
		prev = n
	}
	r.Fence()
	h.SetRoot(0, prev)
	if hd.Malloc(4*SuperblockBytes) == 0 {
		b.Fatal("large OOM")
	}

	var flushes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := r.Crash(); err != nil {
			b.Fatal(err)
		}
		h, dirty, err := Attach(r, Config{})
		if err != nil || !dirty {
			b.Fatalf("attach: dirty=%v err=%v", dirty, err)
		}
		h.GetRoot(0, nil)
		b.StartTimer()
		stats, err := h.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if stats.ReachableBlocks != 20000 {
			b.Fatalf("recovery reached %d blocks, want 20000", stats.ReachableBlocks)
		}
		flushes += stats.Flushes
	}
	b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
}
