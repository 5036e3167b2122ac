package ralloc

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sizeclass"
)

func testHeap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	if cfg.SBRegion == 0 {
		cfg.SBRegion = 8 << 20
	}
	if cfg.GrowthChunk == 0 {
		cfg.GrowthChunk = 1 << 20
	}
	h, dirty, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("fresh heap reported dirty")
	}
	return h
}

func TestMallocBasic(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	off := hd.Malloc(64)
	if off == 0 {
		t.Fatal("Malloc returned nil")
	}
	if off%8 != 0 {
		t.Fatalf("block %#x not word-aligned", off)
	}
	if off < h.SBStart() || off >= h.SBStart()+h.SBUsed() {
		t.Fatalf("block %#x outside used superblock region", off)
	}
	h.Region().Store(off, 0xABCD)
	if h.Region().Load(off) != 0xABCD {
		t.Fatal("block not writable")
	}
}

func TestMallocZeroSize(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	a, b := hd.Malloc(0), hd.Malloc(0)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("Malloc(0) must return distinct non-nil blocks, got %#x %#x", a, b)
	}
}

func TestMallocDistinctNonOverlapping(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		size := uint64(1 + rng.Intn(400))
		off := hd.Malloc(size)
		if off == 0 {
			t.Fatal("unexpected OOM")
		}
		ivs = append(ivs, iv{off, off + sizeclass.Round(size)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].lo < ivs[i-1].hi {
			t.Fatalf("blocks overlap: [%#x,%#x) and [%#x,%#x)",
				ivs[i-1].lo, ivs[i-1].hi, ivs[i].lo, ivs[i].hi)
		}
	}
}

func TestSizeClassSegregation(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	a := hd.Malloc(64)  // class for 64 B
	b := hd.Malloc(400) // class for 448 B
	ia, _ := h.lay.descIndexOf(a)
	ib, _ := h.lay.descIndexOf(b)
	if ia == ib {
		t.Fatal("different size classes share a superblock")
	}
	if bs := h.Region().Load(h.lay.descOff(ia) + dOffBlockSize); bs != 64 {
		t.Fatalf("block size = %d, want 64", bs)
	}
	if bs := h.Region().Load(h.lay.descOff(ib) + dOffBlockSize); bs != 448 {
		t.Fatalf("block size = %d, want 448", bs)
	}
}

func TestFreeReuseSameThread(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	a := hd.Malloc(64)
	hd.Free(a)
	b := hd.Malloc(64)
	if a != b {
		t.Fatalf("thread cache should serve the just-freed block: %#x vs %#x", a, b)
	}
}

func TestMallocFastPathNoFlush(t *testing.T) {
	// The paper's headline: Ralloc pays almost nothing for persistence
	// during normal operation. After warm-up, a malloc/free pair must not
	// flush or fence at all.
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	warm := hd.Malloc(64)
	hd.Free(warm)
	before := h.Region().Stats()
	for i := 0; i < 1000; i++ {
		hd.Free(hd.Malloc(64))
	}
	after := h.Region().Stats()
	if d := after.Flushes - before.Flushes; d != 0 {
		t.Fatalf("fast path issued %d flushes, want 0", d)
	}
	if d := after.Fences - before.Fences; d != 0 {
		t.Fatalf("fast path issued %d fences, want 0", d)
	}
}

// TestFreeReadsNoPersistentWord: Free takes a block's class from the
// volatile mirror, so after warm-up a malloc/free pair reads nothing from
// the region (the descriptor's class and block size were two loads a Free).
func TestFreeReadsNoPersistentWord(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	hd.Free(hd.Malloc(64))
	before := h.Region().Stats().Loads
	for i := 0; i < 1000; i++ {
		hd.Free(hd.Malloc(64))
	}
	if d := h.Region().Stats().Loads - before; d != 0 {
		t.Fatalf("1000 malloc/free pairs made %d region loads, want 0", d)
	}
}

func TestColdMallocFlushesLittle(t *testing.T) {
	// Even including slow paths, 10k 64 B allocations touch ~10
	// superblocks: the flush count must stay tiny (one per superblock
	// init plus region growth), not one per operation.
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	base := h.Region().Stats().Flushes
	for i := 0; i < 10000; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM")
		}
	}
	if d := h.Region().Stats().Flushes - base; d > 50 {
		t.Fatalf("10k mallocs issued %d flushes; expected O(#superblocks)", d)
	}
}

func TestDrainAndRefillThroughPartialList(t *testing.T) {
	h := testHeap(t, Config{CacheCap: 8})
	hd := h.NewHandle()
	var offs []uint64
	for i := 0; i < 64; i++ {
		offs = append(offs, hd.Malloc(64))
	}
	for _, o := range offs {
		hd.Free(o) // cap 8 forces drains through the partial list
	}
	for i := 0; i < 64; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM on refill")
		}
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockRetirement(t *testing.T) {
	// Freeing everything must eventually retire superblocks to the free
	// index so another class can reuse them.
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	var offs []uint64
	for i := 0; i < 8192; i++ { // exactly one class-8 superblock (64 B)
		offs = append(offs, hd.Malloc(64))
	}
	for _, o := range offs {
		hd.Free(o)
	}
	hd.drain(sizeclass.SizeToClass(64)) // push the cache out
	used := h.SBUsed()
	// A different size class must be able to reuse retired superblocks
	// without growing the region beyond one growth chunk.
	for i := 0; i < 100; i++ {
		if hd.Malloc(1024) == 0 {
			t.Fatal("OOM")
		}
	}
	if h.SBUsed() > used+h.cfg.GrowthChunk {
		t.Fatalf("region grew from %d to %d despite retired superblocks", used, h.SBUsed())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeAllocation(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	const size = 200_000 // 4 superblocks
	off := hd.Malloc(size)
	if off == 0 {
		t.Fatal("large Malloc failed")
	}
	if (off-h.SBStart())%SuperblockBytes != 0 {
		t.Fatalf("large block %#x not superblock-aligned", off)
	}
	// The whole extent must be usable.
	h.Region().Store(off, 1)
	h.Region().Store(off+size-8-(size%8), 2)
	idx, _ := h.lay.descIndexOf(off)
	if k := h.Region().Load(h.lay.descOff(idx) + dOffNumSB); k != 4 {
		t.Fatalf("numSB = %d, want 4", k)
	}
	hd.Free(off)
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeSingleSuperblockReuse: the superblocks of a freed large block serve
// the next large request, of one superblock or of many, so a Malloc/Free loop
// of any large size runs on a 64 MB heap in the space its first cycle took.
func TestLargeSingleSuperblockReuse(t *testing.T) {
	for _, size := range []uint64{20_000, 128 << 10, 1 << 20, 3 << 20} {
		h := testHeap(t, Config{SBRegion: 64 << 20, GrowthChunk: 4 << 20})
		hd := h.NewHandle()
		var used uint64
		for i := 0; i < 10_000; i++ {
			off := hd.Malloc(size)
			if off == 0 {
				t.Fatalf("size %d: cycle %d returned 0", size, i)
			}
			if i == 0 {
				used = h.SBUsed()
			} else if h.SBUsed() != used {
				t.Fatalf("size %d: cycle %d grew the heap from %d to %d bytes instead of reusing the freed run", size, i, used, h.SBUsed())
			}
			hd.Free(off)
		}
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestLargeFreeSplitsIntoSuperblocks(t *testing.T) {
	h := testHeap(t, Config{GrowthChunk: SuperblockBytes})
	hd := h.NewHandle()
	off := hd.Malloc(3 * SuperblockBytes)
	if off == 0 {
		t.Fatal("OOM")
	}
	hd.Free(off)
	chk, err := h.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if chk.FreeSuperblocks < 3 {
		t.Fatalf("%d superblocks free after freeing a 3-superblock run", chk.FreeSuperblocks)
	}
	// The freed superblocks are reusable for small classes.
	for i := 0; i < 3*1024; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM reusing split run")
		}
	}
}

func TestOOMReturnsNil(t *testing.T) {
	h := testHeap(t, Config{SBRegion: 4 * SuperblockBytes, GrowthChunk: SuperblockBytes})
	hd := h.NewHandle()
	var got []uint64
	for {
		off := hd.Malloc(14336)
		if off == 0 {
			break
		}
		got = append(got, off)
	}
	if len(got) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Freeing restores service.
	for _, o := range got {
		hd.Free(o)
	}
	hd.drain(sizeclass.SizeToClass(14336))
	if hd.Malloc(14336) == 0 {
		t.Fatal("allocation still failing after frees")
	}
}

func TestOOMLarge(t *testing.T) {
	h := testHeap(t, Config{SBRegion: 4 * SuperblockBytes, GrowthChunk: SuperblockBytes})
	hd := h.NewHandle()
	// The second size would wrap to a run of 0 superblocks if rounded up.
	for _, size := range []uint64{16 * SuperblockBytes, math.MaxUint64 - 100} {
		if off := hd.Malloc(size); off != 0 {
			t.Fatalf("oversized large alloc of %d succeeded: %#x", size, off)
		}
		if h.SBUsed() != 0 {
			t.Fatalf("oversized large alloc of %d grew the heap to %d bytes", size, h.SBUsed())
		}
	}
}

func TestCrossHandleFree(t *testing.T) {
	// Larson-style bleeding: blocks allocated by one thread and freed by
	// another.
	h := testHeap(t, Config{})
	a, b := h.NewHandle(), h.NewHandle()
	var offs []uint64
	for i := 0; i < 5000; i++ {
		offs = append(offs, a.Malloc(128))
	}
	for _, o := range offs {
		b.Free(o)
	}
	for i := 0; i < 5000; i++ {
		if b.Malloc(128) == 0 {
			t.Fatal("OOM")
		}
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeDetectedByInvariants(t *testing.T) {
	h := testHeap(t, Config{CacheCap: 1})
	hd := h.NewHandle()
	a := hd.Malloc(64)
	_ = hd.Malloc(64) // keep the superblock from retiring
	hd.Free(a)
	hd.Free(a)
	hd.drain(sizeclass.SizeToClass(64))
	if _, err := h.CheckInvariants(); err == nil {
		t.Fatal("double free not detected by invariant checker")
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	hd.Free(0)
}

func TestFreeForeignOffsetPanics(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	hd.Free(8) // metadata region
}

func TestFreeInteriorPanics(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	off := hd.Malloc(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	hd.Free(off + 8)
}

func TestConcurrentMallocFree(t *testing.T) {
	h := testHeap(t, Config{SBRegion: 32 << 20})
	const goroutines = 8
	const opsPer = 20000
	results := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hd := h.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			var live []uint64
			for i := 0; i < opsPer; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					hd.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					off := hd.Malloc(uint64(8 + rng.Intn(393)))
					if off == 0 {
						t.Error("OOM under concurrency")
						return
					}
					live = append(live, off)
				}
			}
			results[g] = live
		}(g)
	}
	wg.Wait()
	// All live blocks across goroutines must be distinct.
	seen := make(map[uint64]int)
	for g, live := range results {
		for _, off := range live {
			if prev, dup := seen[off]; dup {
				t.Fatalf("block %#x live in goroutines %d and %d", off, prev, g)
			}
			seen[off] = g
		}
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	h := testHeap(t, Config{SBRegion: 32 << 20})
	const n = 30000
	ch := make(chan uint64, 1024)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hd := h.NewHandle()
			for i := 0; i < n; i++ {
				off := hd.Malloc(64)
				if off == 0 {
					t.Error("OOM")
					return
				}
				ch <- off
			}
		}()
	}
	var cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			hd := h.NewHandle()
			for off := range ch {
				hd.Free(off)
			}
		}()
	}
	wg.Wait()
	close(ch)
	cwg.Wait()
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRootsRoundTrip(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	off := hd.Malloc(64)
	h.SetRoot(7, off)
	if got := h.GetRoot(7, nil); got != off {
		t.Fatalf("GetRoot = %#x, want %#x", got, off)
	}
	h.SetRoot(7, 0)
	if got := h.GetRoot(7, nil); got != 0 {
		t.Fatalf("cleared root = %#x, want 0", got)
	}
}

func TestRootIndexOutOfRangePanics(t *testing.T) {
	h := testHeap(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.SetRoot(NumRoots, 8)
}

func TestCloseReopenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.ralloc")
	cfg := Config{SBRegion: 8 << 20, GrowthChunk: 1 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, dirty, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("fresh heap dirty")
	}
	hd := h.NewHandle()
	off := hd.Malloc(64)
	h.Region().Store(off, 0x600D)
	h.Region().Flush(off)
	h.SetRoot(0, off)
	// A superblock of 1 KB blocks emptied while on its partial list, which
	// a refill would retire when it popped it (§4.4).
	var kb []uint64
	for i := 0; i < 64; i++ {
		kb = append(kb, hd.Malloc(1024))
	}
	emptied, _ := h.lay.descIndexOf(kb[0])
	for _, half := range [][]uint64{kb[:32], kb[32:]} {
		for _, b := range half {
			hd.Free(b)
		}
		hd.Flush()
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, dirty, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("cleanly closed heap reported dirty")
	}
	got := h2.GetRoot(0, nil)
	if got != off {
		t.Fatalf("root = %#x, want %#x", got, off)
	}
	if v := h2.Region().Load(got); v != 0x600D {
		t.Fatalf("data = %#x, want 0x600D", v)
	}
	// The clean reopen retires the emptied superblock.
	chk, err := h2.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if n := chk.PartialLens[sizeclass.SizeToClass(1024)]; n != 0 || !freeBit(h2, emptied) {
		t.Fatalf("emptied superblock %d not retired at reopen (%d superblocks on its class's partial lists)", emptied, n)
	}
	// Clean restart: allocation works without recovery.
	if h2.NewHandle().Malloc(64) == 0 {
		t.Fatal("OOM after clean reopen")
	}
}

func TestDirtyFlagAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.ralloc")
	cfg := Config{SBRegion: 8 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, _, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.NewHandle().Malloc(64)
	// Crash without Close, then save the surviving NVM image as the
	// "DAX file" a new process would map.
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	if err := h.Region().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, dirty, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed heap must report dirty")
	}
}

func TestHandleInvalidAfterClose(t *testing.T) {
	h := testHeap(t, Config{})
	hd := h.NewHandle()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from stale handle")
		}
	}()
	hd.Malloc(64)
}

func TestCloseTwiceErrors(t *testing.T) {
	h := testHeap(t, Config{})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

func TestLRMallocModeNeverFlushes(t *testing.T) {
	h := testHeap(t, Config{NoFlush: true})
	if h.Name() != "lrmalloc" {
		t.Fatalf("Name = %q, want lrmalloc", h.Name())
	}
	hd := h.NewHandle()
	for i := 0; i < 10000; i++ {
		hd.Free(hd.Malloc(64))
	}
	if s := h.Region().Stats(); s.Flushes != 0 || s.Fences != 0 {
		t.Fatalf("LRMalloc mode flushed %d / fenced %d; want 0/0", s.Flushes, s.Fences)
	}
}

func TestReturnHalfPolicy(t *testing.T) {
	h := testHeap(t, Config{ReturnHalf: true, CacheCap: 16})
	hd := h.NewHandle()
	var offs []uint64
	for i := 0; i < 17; i++ {
		offs = append(offs, hd.Malloc(64))
	}
	for _, o := range offs {
		hd.Free(o)
	}
	// With half-return, the cache keeps roughly half after a drain.
	if n := len(hd.cache[sizeclass.SizeToClass(64)]); n < 8 {
		t.Fatalf("cache kept %d blocks; half-return should retain about half", n)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleFlushReturnsCache(t *testing.T) {
	// Flush models a clean thread exit: the cached blocks become
	// available to other threads through the global lists.
	h := testHeap(t, Config{})
	a := h.NewHandle()
	block := a.Malloc(64)
	a.Free(block) // lands in a's cache
	a.Flush()
	b := h.NewHandle()
	found := false
	for i := 0; i < 2000; i++ {
		if b.Malloc(64) == block {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("flushed block never reached another handle")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAnchorPackUnpack(t *testing.T) {
	for _, c := range []struct {
		state        uint64
		avail, count uint32
	}{
		{stateEmpty, 0, 0},
		{statePartial, 8191, 4096},
		{stateFull, anchorAvailNone, 0},
	} {
		s, a, n := unpackAnchor(packAnchor(c.state, c.avail, c.count))
		if s != c.state || a != c.avail || n != c.count {
			t.Fatalf("anchor round trip (%d,%d,%d) -> (%d,%d,%d)",
				c.state, c.avail, c.count, s, a, n)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l, err := computeLayout(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if l.maxDescs != 16 {
		t.Fatalf("maxDescs = %d, want 16", l.maxDescs)
	}
	// The superblock region sits right after the metadata so its base is
	// invariant under resizing; descriptors go at the end.
	if l.sbStart != MetaBytes {
		t.Fatalf("sbStart = %d, want %d", l.sbStart, MetaBytes)
	}
	if l.descStart != MetaBytes+l.sbSize {
		t.Fatalf("descStart = %d, want %d", l.descStart, MetaBytes+l.sbSize)
	}
	if l.sbStart%SuperblockBytes != 0 {
		t.Fatalf("sbStart %#x not superblock-aligned", l.sbStart)
	}
	if _, err := computeLayout(100); err == nil {
		t.Fatal("tiny layout must be rejected")
	}
	if _, err := computeLayout(2 << 40); err == nil {
		t.Fatal("layout beyond 1 TB must be rejected")
	}
}

func TestDescIndexOf(t *testing.T) {
	l, _ := computeLayout(1 << 20)
	if _, ok := l.descIndexOf(l.sbStart - 8); ok {
		t.Fatal("offset before region accepted")
	}
	idx, ok := l.descIndexOf(l.sbStart + SuperblockBytes + 100)
	if !ok || idx != 1 {
		t.Fatalf("descIndexOf = (%d,%v), want (1,true)", idx, ok)
	}
	if _, ok := l.descIndexOf(l.sbStart + l.sbSize); ok {
		t.Fatal("offset past region accepted")
	}
}
