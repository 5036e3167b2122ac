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
