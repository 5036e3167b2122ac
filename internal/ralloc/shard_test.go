package ralloc

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sizeclass"
)

// Tests for the sharded partial lists and the batched remote-free path:
// concurrent churn under -race, recovery rebuilding the sharded lists with
// no descriptor lost or duplicated, shard-count migration across clean
// restarts, and the Close/SaveFile dirty-flag protocol.

// TestShardedChurnRace drives concurrent Malloc/Free churn across handles
// with every free remote: goroutines pass each allocated batch one position
// around a ring, so blocks are always freed by a different handle than the
// one that allocated them, exercising freeBatch splices and partial-list
// pushes/steals across shards. Run under -race this doubles as a data-race
// check on the sharded head words.
func TestShardedChurnRace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Config{
			SBRegion:    64 << 20,
			GrowthChunk: 1 << 20,
			Shards:      shards,
			CacheCap:    48, // small cache: frequent drains through the global lists
		}
		h := testHeap(t, cfg)
		const (
			goroutines = 8
			iters      = 300
			batch      = 32
		)
		sizes := []uint64{16, 64, 192, 1024}
		chans := make([]chan []uint64, goroutines)
		for i := range chans {
			chans[i] = make(chan []uint64, 1)
		}
		var wg sync.WaitGroup
		for id := 0; id < goroutines; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				hd := h.NewHandle()
				rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
				for it := 0; it < iters; it++ {
					out := make([]uint64, batch)
					size := sizes[rng.Intn(len(sizes))]
					for i := range out {
						out[i] = hd.Malloc(size)
						if out[i] == 0 {
							panic("churn OOM")
						}
					}
					chans[(id+1)%goroutines] <- out
					for _, b := range <-chans[id] {
						hd.Free(b)
					}
				}
				hd.Flush()
			}(id)
		}
		wg.Wait()

		chk, err := h.CheckInvariants()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if chk.AllocatedBlks != 0 {
			t.Fatalf("shards=%d: %d blocks leaked after full churn", shards, chk.AllocatedBlks)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// descAccounting verifies that after recovery every used descriptor is
// accounted for exactly once: on the superblock free list, on exactly one
// partial-list shard of its class, FULL off-list, or part of a live large
// run. CheckInvariants already rejects duplicates and cross-list membership;
// this adds the "nothing lost" direction.
func descAccounting(t *testing.T, h *Heap) {
	t.Helper()
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r := h.region
	n := h.usedDescs()

	onFree := make(map[uint32]bool)
	for _, idx := range listMembers(h, offFreeHead, dOffNextFree) {
		onFree[uint32(idx)] = true
	}
	onPartial := make(map[uint32]bool)
	for c := 1; c <= sizeclass.NumClasses; c++ {
		for s := uint32(0); s < MaxShards; s++ {
			for _, idx := range listMembers(h, partialHeadOff(c, s), dOffNextPartial) {
				onPartial[uint32(idx)] = true
			}
		}
	}

	accounted := uint32(0)
	for i := uint32(0); i < n; {
		d := h.lay.descOff(i)
		cls := r.Load(d + dOffClass)
		bs := r.Load(d + dOffBlockSize)
		numSB := r.Load(d + dOffNumSB)
		switch {
		case cls == 0 && bs > 0 && numSB > 0: // live large run
			for j := uint32(0); j < uint32(numSB); j++ {
				if onFree[i+j] || onPartial[i+j] {
					t.Fatalf("desc %d of live large run on a list", i+j)
				}
			}
			accounted += uint32(numSB)
			i += uint32(numSB)
		case cls == contClass:
			t.Fatalf("desc %d: orphaned continuation survived recovery", i)
		case cls >= 1 && cls <= uint64(sizeclass.NumClasses):
			st, _, _ := unpackAnchor(r.Load(d + dOffAnchor))
			switch st {
			case statePartial:
				if !onPartial[i] {
					t.Fatalf("desc %d PARTIAL but lost from every partial shard", i)
				}
			case stateFull:
				if onFree[i] || onPartial[i] {
					t.Fatalf("desc %d FULL but on a list", i)
				}
			default:
				t.Fatalf("desc %d: small class in state %d after recovery", i, st)
			}
			accounted++
			i++
		default: // uninitialized: must be on the free list
			if !onFree[i] {
				t.Fatalf("desc %d free but lost from the superblock free list", i)
			}
			accounted++
			i++
		}
	}
	if accounted != n {
		t.Fatalf("accounted %d of %d used descriptors", accounted, n)
	}
}

// shardedCrashHeap builds a heap holding a durable reachable list plus
// leaked small blocks and a leaked large run, then simulates a crash.
func shardedCrashHeap(t *testing.T, shards int) *Heap {
	t.Helper()
	h, dirty, err := Open("", Config{
		SBRegion:    16 << 20,
		GrowthChunk: 1 << 20,
		Shards:      shards,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("fresh heap dirty")
	}
	hd := h.NewHandle()
	buildList(t, h, hd, 1500, 0)
	for i := 0; i < 4000; i++ { // leaked small blocks across several classes
		if hd.Malloc([]uint64{16, 64, 320}[i%3]) == 0 {
			t.Fatal("OOM")
		}
	}
	if hd.Malloc(3*SuperblockBytes+100) == 0 { // leaked large run
		t.Fatal("large OOM")
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestShardedRecoveryNoLossNoDup crashes a populated heap and verifies both
// recovery paths rebuild the sharded lists with every descriptor accounted
// for exactly once, under several shard counts.
func TestShardedRecoveryNoLossNoDup(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			h := shardedCrashHeap(t, shards)
			h.GetRoot(0, nil)
			stats, err := h.RecoverParallel(workers)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ReachableBlocks != 1500 {
				t.Fatalf("shards=%d workers=%d: reachable = %d, want 1500",
					shards, workers, stats.ReachableBlocks)
			}
			if stats.SweepUnits == 0 || stats.TraceWork == 0 {
				t.Fatalf("work counters not recorded: %+v", stats)
			}
			descAccounting(t, h)
			// The rebuilt heap must still satisfy recoverability: the
			// list is intact and allocation works.
			if got := len(walkList(h, 0)); got != 1500 {
				t.Fatalf("list has %d nodes after recovery", got)
			}
			if h.NewHandle().Malloc(64) == 0 {
				t.Fatal("OOM after recovery")
			}
		}
	}
}

// TestRecoveryAcrossShardCountChange crashes a heap built with one shard
// count and recovers it after attaching with a different one — the dirty
// image's stale lists must be rebuilt wholesale under the new geometry.
func TestRecoveryAcrossShardCountChange(t *testing.T) {
	h := shardedCrashHeap(t, 1)
	h2, dirty, err := Attach(h.Region(), Config{Shards: 8, Pmem: pmem.Config{Mode: pmem.ModeCrashSim, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed heap attached clean")
	}
	h2.GetRoot(0, nil)
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	descAccounting(t, h2)
	if got := len(walkList(h2, 0)); got != 1500 {
		t.Fatalf("list has %d nodes after recovery", got)
	}
}

// TestShardRemapOnCleanReattach closes a heap under one shard count and
// reopens the saved image under others; the clean image's partial lists must
// be remapped onto the new geometry with nothing stranded on inactive
// shards (CheckInvariants rejects exactly that).
func TestShardRemapOnCleanReattach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.img")
	cfg := func(shards int) Config {
		return Config{SBRegion: 16 << 20, GrowthChunk: 1 << 20, Shards: shards}
	}

	h, dirty, err := Open(path, cfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("fresh heap dirty")
	}
	// Create partial superblocks in a few classes: allocate several
	// superblocks' worth, free every other block, keep the rest live.
	hd := h.NewHandle()
	live := map[uint64]bool{}
	for _, size := range []uint64{64, 192, 1024} {
		var blocks []uint64
		for i := 0; i < 3000; i++ {
			off := hd.Malloc(size)
			if off == 0 {
				t.Fatal("OOM")
			}
			blocks = append(blocks, off)
		}
		for i, off := range blocks {
			if i%2 == 0 {
				hd.Free(off)
			} else {
				live[off] = true
			}
		}
	}
	hd.Flush()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		h, dirty, err = Open(path, cfg(shards))
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			t.Fatal("cleanly closed heap reported dirty")
		}
		chk, err := h.CheckInvariants()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		total := 0
		for _, l := range chk.PartialLens {
			total += l
		}
		if total == 0 {
			t.Fatalf("shards=%d: partial lists lost in remap", shards)
		}
		// The remapped lists must actually serve allocations: freshly
		// allocated blocks reuse partial superblocks, not new space.
		used := h.SBUsed()
		hd := h.NewHandle()
		for i := 0; i < 1000; i++ {
			off := hd.Malloc(64)
			if off == 0 {
				t.Fatal("OOM after remap")
			}
			if live[off] {
				t.Fatalf("remapped list handed out live block %#x", off)
			}
		}
		if h.SBUsed() != used {
			t.Fatalf("shards=%d: allocation grew the heap instead of reusing partial superblocks", shards)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseSaveFailureRestoresDirty: a mapped heap under a missing directory
// never opens — the file is created at Open, not at Close — and a Close whose
// final sync fails is not reported clean: Close errors and the dirty indicator
// is restored, in the file, so the next open triggers recovery.
func TestCloseSaveFailureRestoresDirty(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Open(filepath.Join(dir, "missing", "heap.img"), Config{SBRegion: 8 << 20}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open under a missing directory: err = %v", err)
	}
	path := filepath.Join(dir, "heap.img")
	h, _, err := Open(path, Config{SBRegion: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hd := h.NewHandle()
	if hd.Malloc(64) == 0 {
		t.Fatal("OOM")
	}
	syncRegion = func(*pmem.Region) error { return errors.New("injected msync failure") }
	defer func() { syncRegion = (*pmem.Region).Sync }()
	if err := h.Close(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Close = %v despite the failing sync", err)
	}
	if v := h.Region().Load(offDirty); v != 1 {
		t.Fatalf("dirty = %d after failed sync, want 1", v)
	}
	h2, dirty, err := Open(path, Config{SBRegion: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("failed-sync heap opened clean")
	}
	h2.GetRoot(0, nil)
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
