package cluster

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// mappedConfig is a one-shard cluster over a mapped heap small enough to be
// created a few thousand times.
func mappedConfig(hook func()) Config {
	return Config{
		Shards:  1,
		Ralloc:  ralloc.Config{SBRegion: 1 << 20, Shards: 1, Pmem: pmem.Config{Mode: pmem.ModeFast, StoreHook: hook}},
		Buckets: 16,
	}
}

// census closes c and counts what its heap holds: with every cache returned by
// the close, a block that is allocated is a block that is reachable, or it is
// a leak.
func census(t *testing.T, c *Cluster) (allocated, reachable uint64, records int) {
	t.Helper()
	sh := c.Shards[0]
	records = sh.Store.Len()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sh.Heap.GetRoot(kvstore.RootStore, sh.Store.Filter())
	sh.Heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
	chk, err := sh.Heap.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	reachable, _ = sh.Heap.Trace()
	return chk.AllocatedBlks, reachable, records
}

// TestHeapKilledWhileBeingCreatedOpensAgain: a mapped heap exists as a file
// from the first instant of its creation, so a kill can land on any store of
// it — before the heap magic (stored last), or between the store's creation
// and its rooting. The hook panics at the n-th store, for every n the creation
// makes; the next start must open, hold exactly one (empty) store and no block
// beside it, and serve.
func TestHeapKilledWhileBeingCreatedOpensAgain(t *testing.T) {
	// A few thousand clean closes, each an msync: on tmpfs, where there is one,
	// they cost nothing and the sweep takes a third of the time.
	dir, err := os.MkdirTemp("/dev/shm", "ralloc-create-sweep-")
	if err != nil {
		dir = t.TempDir()
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "kv.heap")
	var crash alloctest.Crasher
	var c *Cluster
	crash.At(math.MaxInt, func() { c, err = Open(base, mappedConfig(crash.Hook)) })
	if err != nil {
		t.Fatal(err)
	}
	stores := crash.Stores()
	wantAlloc, wantReach, _ := census(t, c)
	if wantAlloc != wantReach || wantAlloc == 0 {
		t.Fatalf("reference heap: %d blocks allocated, %d reachable", wantAlloc, wantReach)
	}
	t.Logf("creation is %d stores; an empty store is %d blocks", stores, wantAlloc)

	// Every store; under -short (the race job) every 16th and the last 64,
	// which span the heap magic and the store's creation and rooting.
	for n := 1; n <= stores; n++ {
		if testing.Short() && n%16 != 0 && n <= stores-64 {
			continue
		}
		if err := os.Remove(base); err != nil {
			t.Fatal(err)
		}
		if !crash.At(n, func() { openShard(base, mappedConfig(crash.Hook)) }) {
			t.Fatalf("store %d: creation ended without the injected kill", n)
		}
		c, err := Open(base, mappedConfig(nil))
		if err != nil {
			t.Fatalf("killed at store %d of creation: the heap never opens again: %v", n, err)
		}
		sh := c.Shards[0]
		if !sh.Store.SetBytes(sh.Alloc.NewHandle(), []byte("k"), []byte("v")) || sh.Store.Len() != 1 {
			t.Fatalf("killed at store %d: the reopened store does not serve", n)
		}
		sh.Store.Delete(sh.Alloc.NewHandle(), []byte("k"))
		if alloc, reach, recs := census(t, c); alloc != wantAlloc || reach != wantReach || recs != 0 {
			t.Fatalf("killed at store %d: %d blocks allocated, %d reachable, %d records; an empty store is %d/%d/0",
				n, alloc, reach, recs, wantAlloc, wantReach)
		}
	}
}

// TestMappedClusterSurvivesDropWithoutClose: records written to a mapped
// cluster that is dropped — no Close, no SAVE — are all there at the next
// open, which finds the heaps dirty and recovers them.
func TestMappedClusterSurvivesDropWithoutClose(t *testing.T) {
	base := filepath.Join(t.TempDir(), "kv.heap")
	cfg := testConfig(2)
	cfg.Ralloc.Pmem.Mode = pmem.ModeFast
	c, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Shards[0].Heap.Region().Mapped() {
		t.Fatal("a ModeFast heap with a path is not mapped")
	}
	fill(t, c, 300)

	c2, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Recovered || c2.Records() != 600 {
		t.Fatalf("after the drop: recovered %v, %d records, want true, 600", c2.Recovered, c2.Records())
	}
	for i, sh := range c2.Shards {
		if v, ok, _ := sh.Store.GetBytes([]byte("s" + string(rune('0'+i)) + "-key-0299")); !ok || string(v) != "v" {
			t.Fatalf("shard %d lost its last record", i)
		}
		if _, err := sh.Heap.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
