package ralloc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pmem"
)

// A ModeFast heap with a path is the file, mapped: these tests walk it through
// what a served heap goes through. pmem's own tests cover the mapping; the
// creation sweep (every store, through the store's rooting) is
// internal/cluster's TestHeapKilledWhileBeingCreatedOpensAgain.

var mappedCfg = Config{SBRegion: 8 << 20, GrowthChunk: 1 << 20, Shards: 2}

// TestMappedHeapLifecycle: create, drop without closing (what a kill -9
// leaves), reopen dirty and recover with every block intact, close cleanly —
// a sync of the same file, not a rewritten image — and reopen clean.
func TestMappedHeapLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.ralloc")
	h, dirty, err := Open(path, mappedCfg)
	if err != nil || dirty {
		t.Fatalf("fresh mapped heap: dirty %v, %v", dirty, err)
	}
	if !h.Region().Mapped() {
		t.Fatal("a ModeFast heap with a path is not mapped")
	}
	created, err := os.Stat(path)
	if err != nil || uint64(created.Size()) <= h.Region().Size() {
		t.Fatalf("heap file: %v, %v", created, err)
	}
	hd := h.NewHandle()
	var blocks []uint64
	for i := 0; i < 100; i++ {
		off := hd.Malloc(64)
		h.Region().Store(off, uint64(i)) // never flushed: a kill keeps it all the same
		blocks = append(blocks, off)
	}
	list := hd.Malloc(uint64(len(blocks)) * 8)
	for i, off := range blocks {
		h.Region().Store(list+uint64(i)*8, off)
	}
	h.SetRoot(3, list)

	h2, dirty, err := Open(path, mappedCfg)
	if err != nil || !dirty {
		t.Fatalf("heap dropped without Close: dirty %v, %v", dirty, err)
	}
	if got := h2.GetRoot(3, nil); got != list {
		t.Fatalf("root = %#x, want %#x", got, list)
	}
	st, err := h2.Recover()
	if err != nil || st.ReachableBlocks != 1 {
		t.Fatalf("Recover = %+v, %v: the list block holds plain offsets, nothing else is reachable", st, err)
	}
	for i, off := range blocks {
		if got := h2.Region().Load(list + uint64(i)*8); got != off {
			t.Fatalf("list[%d] = %#x, want %#x", i, got, off)
		}
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Stat(path)
	if err != nil || !os.SameFile(created, closed) || closed.Size() != created.Size() {
		t.Fatalf("Close replaced or resized the heap file: %v, %v", closed, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Close wrote an image beside the heap: %v", err)
	}

	h3, dirty, err := Open(path, mappedCfg)
	if err != nil || dirty {
		t.Fatalf("cleanly closed mapped heap: dirty %v, %v", dirty, err)
	}
	if h3.GetRoot(3, nil) != list || h3.NewHandle().Malloc(64) == 0 {
		t.Fatal("clean reopen lost the root or cannot allocate")
	}
	if _, err := h3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And the closed file is an image like any other.
	if _, err := pmem.LoadFile(path, pmem.Config{}); err != nil {
		t.Fatalf("a mapped heap's file does not load as an image: %v", err)
	}
}

// TestMappedHeapCutShortInCreationIsFormattedAgain: a file holding the image
// header alone (killed before its length was allocated), and one whose heap
// magic is still zero (killed inside initialize, which stores it last), are
// heaps that never came to be: Open formats them. A magic that is neither zero
// nor Ralloc's is somebody else's data and stays an error, as does a file laid
// out for another capacity.
func TestMappedHeapCutShortInCreationIsFormattedAgain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.ralloc")
	h, _, err := Open(path, mappedCfg)
	if err != nil {
		t.Fatal(err)
	}
	h.NewHandle().Malloc(64)

	const imageHeader = 48
	if err := os.Truncate(path, imageHeader); err != nil {
		t.Fatal(err)
	}
	h2, dirty, err := Open(path, mappedCfg)
	if err != nil || dirty || h2.SBUsed() != 0 {
		t.Fatalf("file cut to its header: dirty %v, %v", dirty, err)
	}
	if h2.NewHandle().Malloc(64) == 0 {
		t.Fatal("OOM on the re-formatted heap")
	}

	h2.Region().Store(offMagic, 0) // as if initialize had not got there
	h3, dirty, err := Open(path, mappedCfg)
	if err != nil || dirty || h3.SBUsed() != 0 {
		t.Fatalf("zero heap magic: dirty %v, %v", dirty, err)
	}
	if _, err := h3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	other := mappedCfg
	other.SBRegion = 16 << 20
	h3.Region().Store(offMagic, 0)
	if _, _, err := Open(path, other); err == nil {
		t.Fatal("an 8 MB file was formatted as a 16 MB heap")
	}
	h3.Region().Store(offMagic, 0xBAD)
	if _, _, err := Open(path, mappedCfg); err == nil {
		t.Fatal("a foreign magic was accepted")
	}
}

// TestRootBytes: a root that is one pointer-free blob — published whole,
// kept by recovery under LeafFilter, and gone once cleared and freed.
func TestRootBytes(t *testing.T) {
	cfg := Config{SBRegion: 8 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, _, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if block, b := h.RootBytes(5); block != 0 || b != nil {
		t.Fatalf("unset root reads (%#x, %q)", block, b)
	}
	for _, n := range []int{0, 1, 100, 5000, 200 << 10} {
		want := bytes.Repeat([]byte{byte(n), 0xA5}, n/2+1)[:n]
		block, ok := h.SetRootBytes(h.NewHandle(), 5, want)
		if !ok {
			t.Fatalf("%d bytes: heap exhausted", n)
		}
		// Everything SetRootBytes stored is persistent when it returns.
		if err := h.Region().Crash(); err != nil {
			t.Fatal(err)
		}
		h2, dirty, err := Attach(h.Region(), cfg)
		if err != nil || !dirty {
			t.Fatalf("attach after crash: dirty %v, %v", dirty, err)
		}
		h2.GetRoot(5, LeafFilter)
		if st, err := h2.Recover(); err != nil || st.ReachableBlocks != 1 {
			t.Fatalf("%d bytes: Recover = %+v, %v", n, st, err)
		}
		got, b := h2.RootBytes(5)
		if got != block || !bytes.Equal(b, want) {
			t.Fatalf("%d bytes: read back %d bytes at %#x, want block %#x", n, len(b), got, block)
		}
		h2.SetRoot(5, 0)
		h2.NewHandle().Free(block)
		if block, _ := h2.RootBytes(5); block != 0 {
			t.Fatal("cleared root still reads")
		}
		h = h2
	}
	// A root that is no block of this heap reads as unset, not as a panic.
	h.SetRoot(5, h.Region().Size()-8)
	h.Region().Store(h.Region().Size()-8, 1<<40)
	if block, b := h.RootBytes(5); block != 0 || b != nil {
		t.Fatalf("hostile root reads (%#x, %d bytes)", block, len(b))
	}
	small := Config{SBRegion: 1 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	if hs, _, err := Open("", small); err != nil {
		t.Fatal(err)
	} else if _, ok := hs.SetRootBytes(hs.NewHandle(), 5, make([]byte, 2<<20)); ok || hs.GetRoot(5, nil) != 0 {
		t.Fatal("a blob larger than the heap was published")
	}
}
