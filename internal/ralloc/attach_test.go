package ralloc

import (
	"strings"
	"testing"

	"repro/internal/pmem"
)

func TestAttachCleanRegion(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 50, 0)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-attach to the same region, as a new process mapping the segment.
	h2, dirty, err := Attach(h.Region(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Fatal("cleanly closed region reported dirty")
	}
	if got := len(walkList(h2, 0)); got != 50 {
		t.Fatalf("list = %d nodes after attach, want 50", got)
	}
	// Clean restart: allocation works immediately, and the metadata that
	// was written back at Close is directly usable (fast restart, §4.2).
	if h2.NewHandle().Malloc(64) == 0 {
		t.Fatal("OOM after clean attach")
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachDirtyRegionRequiresRecovery(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 50, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h2, dirty, err := Attach(h.Region(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed region reported clean")
	}
	h2.GetRoot(0, nil)
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(walkList(h2, 0)); got != 50 {
		t.Fatalf("list = %d nodes after recovery, want 50", got)
	}
}

func TestAttachRejectsForeignRegion(t *testing.T) {
	r := pmem.NewRegion(1<<20, pmem.Config{})
	if _, _, err := Attach(r, Config{}); err == nil {
		t.Fatal("attached to a region with no heap in it")
	}
}

// TestAttachRejectsOtherVersions: there is one heap layout. An image stamped
// with any other version — v3's records differ from v4's only in the tag
// bits, v2's are laid out differently — is refused, never reinterpreted.
func TestAttachRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint64{2, 3, heapVersion + 1} {
		h := crashHeap(t, 0)
		r := h.Region()
		r.Store(offVersion, v)
		if _, _, err := Attach(r, Config{}); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d image: err = %v, want a version error", v, err)
		}
	}
}

func TestTraceIsReadOnly(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 80, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	before := h.Region().Stats()
	b1, bytes1 := h.Trace()
	b2, bytes2 := h.Trace() // repeatable: nothing was mutated
	after := h.Region().Stats()
	if after.Stores != before.Stores || after.CASes != before.CASes || after.Flushes != before.Flushes {
		t.Fatalf("Trace wrote to the region: before %+v after %+v", before, after)
	}
	if b1 != 80 || b2 != 80 {
		t.Fatalf("Trace = %d then %d, want 80", b1, b2)
	}
	if bytes1 != 80*64 || bytes2 != bytes1 {
		t.Fatalf("Trace bytes = %d then %d", bytes1, bytes2)
	}
	// The real recovery still works afterwards.
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(walkList(h, 0)) != 80 {
		t.Fatal("list damaged")
	}
}

// TestFreeBeforeRecoverPanics: on a dirty heap not yet recovered the class
// mirror reads 0 everywhere, which is also what a large run's head reads, so
// a Free of a small block reaches freeLarge. The descriptor must refuse it
// there before anything is cleared: recovery still finds the block.
func TestFreeBeforeRecoverPanics(t *testing.T) {
	h := crashHeap(t, 0)
	b := h.NewHandle().Malloc(64)
	if b != h.lay.sbOff(0) {
		t.Fatalf("first block at %#x, want the start of superblock 0", b)
	}
	h.SetRoot(0, b)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h2, dirty, err := Attach(h.Region(), Config{})
	if err != nil || !dirty {
		t.Fatalf("attach: dirty=%v err=%v", dirty, err)
	}
	r, d := h2.Region(), h2.lay.descOff(0)
	before, after := make([]byte, DescBytes), make([]byte, DescBytes)
	r.ReadBytes(d, before)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Free of a small block before Recover did not panic")
			}
		}()
		h2.NewHandle().Free(b)
	}()
	if r.ReadBytes(d, after); string(after) != string(before) {
		t.Fatalf("the refused Free changed descriptor 0: %x -> %x", before, after)
	}
	h2.GetRoot(0, LeafFilter)
	stats, err := h2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	chk, err := h2.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 1 || chk.AllocatedBlks != 1 {
		t.Fatalf("after recovery %d blocks reachable, %d allocated; want 1 and 1", stats.ReachableBlocks, chk.AllocatedBlks)
	}
}

// TestCleanAttachReadsEachDescriptorOnce: relist reads a used descriptor's
// class, block size and run length as one group, plus a small superblock's
// anchor: at most four loads a used superblock, whatever it holds.
func TestCleanAttachReadsEachDescriptorOnce(t *testing.T) {
	h, _, err := Open("", Config{SBRegion: 32 << 20, GrowthChunk: 1 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}})
	if err != nil {
		t.Fatal(err)
	}
	hd := h.NewHandle()
	var keep []uint64
	for i := 0; i < 6000; i++ {
		size := []uint64{16, 64, 320, 2048}[i%4]
		if i%100 == 0 {
			size = 3 * SuperblockBytes
		}
		b := hd.Malloc(size)
		if b == 0 {
			t.Fatal("OOM")
		}
		if i%3 == 0 {
			hd.Free(b)
		} else {
			keep = append(keep, b)
		}
	}
	for _, b := range keep[:len(keep)/2] {
		hd.Free(b)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	n := uint64(h.usedDescs())
	before := h.Region().Stats().Loads
	h2, dirty, err := Attach(h.Region(), Config{})
	if err != nil || dirty {
		t.Fatalf("attach: dirty=%v err=%v", dirty, err)
	}
	loads := h.Region().Stats().Loads - before
	t.Logf("clean attach of %d used superblocks: %d loads", n, loads)
	if loads > 4*n+16 {
		t.Fatalf("clean attach of %d used superblocks made %d loads, want at most 4 a superblock + 16", n, loads)
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
