package cluster

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/ralloc"
)

const dirtyOpenRecords = 20000

// dirtyImage leaves a one-shard image of n string records on disk, in use:
// what a killed process leaves. A crash-sim heap is loaded from its file and
// only written back by Close, so every open that is dropped unclosed sees the
// same image.
func dirtyImage(tb testing.TB, n int) (base string, cfg Config) {
	tb.Helper()
	base, cfg = filepath.Join(tb.TempDir(), "kv.heap"), testConfig(1)
	c, err := Open(base, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sh := c.Shards[0]
	hd := sh.Alloc.NewHandle()
	for i := 0; i < n; i++ {
		if !sh.Store.SetBytes(hd, []byte(fmt.Sprintf("key-%06d", i)), []byte("value-of-sixteen!")) {
			tb.Fatal("out of memory")
		}
	}
	sh.Heap.Region().Persist()
	if err := sh.Heap.Region().SaveFile(base); err != nil {
		tb.Fatal(err)
	}
	return base, cfg
}

// openFused is the restart cluster.Open makes; openTwoWalks is the one it made
// before the attach rode the trace: recover with the pure filter, then walk
// the buckets. Both return every word load since the region was created.
func openFused(tb testing.TB, base string, cfg Config) (loads uint64, stats ralloc.RecoveryStats) {
	tb.Helper()
	c, err := Open(base, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if !c.Recovered || c.Records() != dirtyOpenRecords {
		tb.Fatalf("recovered %v, %d records", c.Recovered, c.Records())
	}
	return c.Shards[0].Heap.Region().Stats().Loads, c.RecStats
}

func openTwoWalks(tb testing.TB, base string, cfg Config) (loads uint64, stats ralloc.RecoveryStats) {
	tb.Helper()
	heap, dirty, err := ralloc.Open(base, cfg.Ralloc)
	if err != nil || !dirty {
		tb.Fatalf("dirty %v, err %v", dirty, err)
	}
	a := heap.AsAllocator()
	root := heap.GetRoot(kvstore.RootStore, nil)
	heap.GetRoot(kvstore.RootStore, kvstore.Filter(a, root))
	heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
	if stats, err = heap.Recover(); err != nil {
		tb.Fatal(err)
	}
	if s := kvstore.AttachBounded(a, root, cfg.Bound); s.Len() != dirtyOpenRecords {
		tb.Fatalf("%d records", s.Len())
	}
	return heap.Region().Stats().Loads, stats
}

// TestDirtyOpenWalksOnce pins what a restart costs as a count. A record costs
// the trace 6 loads — its descriptor's class and block size (Visit, one
// group), its first word in the batched read (drain), and its link, lengths
// and deadline (the node filter, one group) — and the attach none when it
// rides along: the Record is built from the words the filter read. A second
// traversal paid 3 more per record, the link again and the Record, and one per
// bucket. Counts, so exact: the same image costs the same loads every time.
func TestDirtyOpenWalksOnce(t *testing.T) {
	base, cfg := dirtyImage(t, dirtyOpenRecords)
	fused, fusedStats := openFused(t, base, cfg)
	if again, _ := openFused(t, base, cfg); again != fused {
		t.Fatalf("the same image opened with %d loads, then %d", fused, again)
	}
	two, twoStats := openTwoWalks(t, base, cfg)
	t.Logf("dirty open of %d records: %d loads fused (%.3f a record), %d in two walks (%.3f)",
		dirtyOpenRecords, fused, float64(fused)/dirtyOpenRecords, two, float64(two)/dirtyOpenRecords)
	if want := two - 3*dirtyOpenRecords - uint64(cfg.Buckets); fused != want {
		t.Fatalf("fused open made %d loads, two walks %d: want three loads a record and one a bucket fewer, %d", fused, two, want)
	}
	// Everything that is not per record — the header, the roots, the bucket
	// array, the descriptors of the sweep — is well under half a load a record.
	if per := float64(fused) / dirtyOpenRecords; per < 6 || per >= 6.5 {
		t.Fatalf("fused open made %.3f loads a record, want 6 and change: it was 7 when the attach read the lengths again", per)
	}
	fusedStats.TraceTime, fusedStats.SweepTime, fusedStats.Duration = twoStats.TraceTime, twoStats.SweepTime, twoStats.Duration
	if fusedStats != twoStats {
		t.Fatalf("recovery found %+v fused, %+v with the pure filter", fusedStats, twoStats)
	}
}

// BenchmarkDirtyOpen times both restarts of the same image and reports their
// loads a record.
func BenchmarkDirtyOpen(b *testing.B) {
	base, cfg := dirtyImage(b, dirtyOpenRecords)
	for _, bc := range []struct {
		name string
		open func(testing.TB, string, Config) (uint64, ralloc.RecoveryStats)
	}{{"fused", openFused}, {"two-walks", openTwoWalks}} {
		b.Run(bc.name, func(b *testing.B) {
			var loads uint64
			for i := 0; i < b.N; i++ {
				loads, _ = bc.open(b, base, cfg)
			}
			b.ReportMetric(float64(loads)/dirtyOpenRecords, "loads/record")
		})
	}
}
