package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRoundsSizeToLine(t *testing.T) {
	r := NewRegion(100, Config{})
	if r.Size() != 128 {
		t.Fatalf("size = %d, want 128", r.Size())
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sized region")
		}
	}()
	NewRegion(0, Config{})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(8, 0xDEADBEEF)
	if got := r.Load(8); got != 0xDEADBEEF {
		t.Fatalf("Load = %#x, want 0xDEADBEEF", got)
	}
	if got := r.Load(16); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	r := NewRegion(1024, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misaligned access")
		}
	}()
	r.Load(3)
}

func TestOutOfRangePanics(t *testing.T) {
	r := NewRegion(1024, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	r.Store(1024, 1)
}

// TestLoadEach: the batched read returns what Load returns, is counted as one
// load a word, and is bounds-checked a word at a time like Load.
func TestLoadEach(t *testing.T) {
	r := NewRegion(1024, Config{})
	offs := []uint64{1016, 0, 64, 8, 64}
	for _, off := range offs {
		r.Store(off, off^0xABCD)
	}
	vals := make([]uint64, len(offs))
	r.LoadEach(offs, vals)
	for i, off := range offs {
		if vals[i] != off^0xABCD {
			t.Fatalf("LoadEach word %#x = %#x, want %#x", off, vals[i], off^0xABCD)
		}
	}
	r.LoadEach(nil, nil)
	if got := r.Stats().Loads; got != uint64(len(offs)) {
		t.Fatalf("LoadEach of %d words counted %d loads", len(offs), got)
	}
	for _, bad := range []uint64{1024, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LoadEach accepted offset %d of a 1024-byte region", bad)
				}
			}()
			r.LoadEach([]uint64{0, bad}, make([]uint64, 2))
		}()
	}
}

func TestCAS(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(0, 5)
	if r.CAS(0, 4, 9) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !r.CAS(0, 5, 9) {
		t.Fatal("CAS with right old value failed")
	}
	if got := r.Load(0); got != 9 {
		t.Fatalf("after CAS value = %d, want 9", got)
	}
}

func TestAdd(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(0, 10)
	if got := r.Add(0, 5); got != 15 {
		t.Fatalf("Add returned %d, want 15", got)
	}
}

func TestCrashLosesUnflushedStores(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 1)   // line 0: will be flushed
	r.Store(64, 2)  // line 1: will not
	r.Store(128, 3) // line 2: flushed via FlushRange
	r.Store(192, 4) // line 3: flushed via FlushRange
	r.Flush(0)
	r.FlushRange(128, 128)
	r.Fence()
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(0); got != 1 {
		t.Fatalf("flushed word lost: got %d", got)
	}
	if got := r.Load(64); got != 0 {
		t.Fatalf("unflushed word survived: got %d", got)
	}
	if got := r.Load(128); got != 3 {
		t.Fatalf("range-flushed word lost: got %d", got)
	}
	if got := r.Load(192); got != 4 {
		t.Fatalf("range-flushed word lost: got %d", got)
	}
}

func TestCrashLineGranularity(t *testing.T) {
	// Two words on the same line: flushing one persists both (lines are
	// never torn).
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 1)
	r.Store(8, 2)
	r.Flush(0)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if r.Load(0) != 1 || r.Load(8) != 2 {
		t.Fatal("words sharing a flushed line must both persist")
	}
}

func TestCrashOnFastModeErrors(t *testing.T) {
	r := NewRegion(1024, Config{})
	if err := r.Crash(); err != ErrFastMode {
		t.Fatalf("Crash on fast region: err = %v, want ErrFastMode", err)
	}
}

func TestPersistFlushesEverything(t *testing.T) {
	r := NewRegion(1<<16, Config{Mode: ModeCrashSim})
	for off := uint64(0); off < 1<<16; off += 8 {
		r.Store(off, off)
	}
	r.Persist()
	if n := r.DirtyLines(); n != 0 {
		t.Fatalf("dirty lines after Persist = %d, want 0", n)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<16; off += 8 {
		if got := r.Load(off); got != off {
			t.Fatalf("word %#x = %#x after Persist+Crash", off, got)
		}
	}
}

func TestEvictProbOneSurvivesAll(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim, EvictProb: 1})
	r.Store(64, 42) // never flushed
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(64); got != 42 {
		t.Fatalf("EvictProb=1 should write back everything; got %d", got)
	}
}

func TestEvictProbHalfIsSeeded(t *testing.T) {
	run := func() []uint64 {
		r := NewRegion(1<<14, Config{Mode: ModeCrashSim, EvictProb: 0.5, Seed: 7})
		for off := uint64(0); off < 1<<14; off += 64 {
			r.Store(off, off+1)
		}
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for off := uint64(0); off < 1<<14; off += 64 {
			got = append(got, r.Load(off))
		}
		return got
	}
	a, b := run(), run()
	survived := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same eviction outcome")
		}
		if a[i] != 0 {
			survived++
		}
	}
	if survived == 0 || survived == len(a) {
		t.Fatalf("EvictProb=0.5 survived %d/%d lines; expected a strict subset", survived, len(a))
	}
}

func TestStatsCount(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	r.Store(0, 1)
	r.Load(0)
	r.CAS(0, 1, 2)
	r.Flush(0)
	r.Fence()
	s := r.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LinesBack != 1 {
		t.Fatalf("LinesBack = %d, want 1", s.LinesBack)
	}
}

func TestFlushCleanLineNoWriteBack(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	r.Flush(0) // nothing dirty
	if s := r.Stats(); s.LinesBack != 0 {
		t.Fatalf("LinesBack = %d for clean flush, want 0", s.LinesBack)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := NewRegion(4096, Config{})
	msg := []byte("persistent memory allocation")
	r.WriteBytes(13, msg) // deliberately unaligned
	got := make([]byte, len(msg))
	r.ReadBytes(13, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("ReadBytes = %q, want %q", got, msg)
	}
}

func TestBytesQuick(t *testing.T) {
	r := NewRegion(1<<16, Config{})
	f := func(off uint16, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		o := uint64(off)
		if o+uint64(len(data)) > r.Size() {
			o = 0
		}
		r.WriteBytes(o, data)
		got := make([]byte, len(data))
		r.ReadBytes(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refByte is the byte-at-a-time definition ReadBytes and EqualBytes are
// checked against: byte i of the region is byte i%8 of little-endian word i/8.
func refByte(r *Region, off uint64) byte {
	return byte(r.Load(off&^7) >> (off % WordBytes * 8))
}

// byteCase is one cell of the byte-accessor table: a region and a []byte
// model that hold the same background, nothing dirty, and an armed snapshot
// barrier.
type byteCase struct {
	r     *Region
	model []byte
	tr    *snapTracker
}

func newByteCase(mode Mode) byteCase {
	c := byteCase{r: NewRegion(32*LineBytes, Config{Mode: mode})}
	c.model = make([]byte, c.r.Size())
	for i := range c.model {
		c.model[i] = byte(i*7 + 3)
	}
	c.r.WriteBytes(0, c.model)
	c.r.Persist()
	c.tr = &snapTracker{dirty: make([]uint32, c.r.Size()/LineBytes)}
	c.r.snap.Store(c.tr)
	return c
}

// check requires the region to equal the model byte for byte — so bytes
// beside a write are untouched — under the word view's definition of a byte
// (refByte), and exactly the lines overlapping [off, off+n) to be flagged for
// write-back (ModeCrashSim) and marked by the snapshot barrier.
func (c byteCase) check(t *testing.T, what string, off, n uint64) {
	t.Helper()
	for i, want := range c.model {
		if got := refByte(c.r, uint64(i)); got != want {
			t.Fatalf("%s: byte %d = %#x, want %#x", what, i, got, want)
		}
	}
	for l := range c.tr.dirty {
		lo, hi := uint64(l)*LineBytes, uint64(l+1)*LineBytes
		touched := n > 0 && off < hi && off+n > lo
		if got := atomic.LoadUint32(&c.tr.dirty[l]) != 0; got != touched {
			t.Fatalf("%s: snapshot barrier mark of line %d = %v, want %v", what, l, got, touched)
		}
		if c.r.dirty != nil && (atomic.LoadUint32(&c.r.dirty[l]) != 0) != touched {
			t.Fatalf("%s: dirty flag of line %d, want %v", what, l, touched)
		}
	}
}

// TestReadEqualBytesEveryAlignment drives WriteBytes, ReadBytes, EqualBytes
// and Zero at every offset alignment and across word and line boundaries,
// against a []byte model, in both modes.
func TestReadEqualBytesEveryAlignment(t *testing.T) {
	lens := []uint64{63, 64, 65, 200}
	for n := uint64(0); n <= 24; n++ {
		lens = append(lens, n)
	}
	for _, mode := range []Mode{ModeFast, ModeCrashSim} {
		for align := uint64(0); align < 8; align++ {
			for _, n := range lens {
				what := fmt.Sprintf("%v align %d len %d", mode, align, n)
				c, off := newByteCase(mode), 2*LineBytes+align
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(0xA0 + i)
				}
				c.r.WriteBytes(off, want)
				copy(c.model[off:], want)
				c.check(t, what+" WriteBytes", off, n)

				got := make([]byte, n)
				c.r.ReadBytes(off, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadBytes = %x, want %x", what, got, want)
				}
				if !c.r.EqualBytes(off, want) {
					t.Fatalf("%s: EqualBytes false on the region's own bytes", what)
				}
				// Every single-byte difference is seen; bytes outside the
				// range are not compared.
				for i := range want {
					want[i] ^= 0x80
					if c.r.EqualBytes(off, want) {
						t.Fatalf("%s: EqualBytes missed a difference at byte %d", what, i)
					}
					want[i] ^= 0x80
				}
				if n > 0 && c.r.EqualBytes(off+1, want) {
					t.Fatalf("%s: EqualBytes matched at the wrong offset", what)
				}
				c.check(t, what+" after the reads", off, n)

				// Zero takes word-aligned arguments: the same table in words.
				c, off, n = newByteCase(mode), 2*LineBytes+align*WordBytes, n*WordBytes
				c.r.Zero(off, n)
				clear(c.model[off : off+n])
				c.check(t, what+" (words) Zero", off, n)
			}
		}
	}
}

// The byte accessors read payload with plain loads the Region does not
// count: the per-layer "loads" rows count word loads only.
func TestByteAccessorsAreUncounted(t *testing.T) {
	r := NewRegion(256, Config{})
	r.WriteBytes(3, []byte("uncounted payload"))
	before := r.Stats()
	buf := make([]byte, 17)
	r.ReadBytes(3, buf)
	if !r.EqualBytes(3, buf) {
		t.Fatal("EqualBytes disagrees with ReadBytes")
	}
	if after := r.Stats(); after != before {
		t.Fatalf("byte reads moved the counters: %+v -> %+v", before, after)
	}
}

func TestWriteBytesMarksDirty(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.WriteBytes(100, []byte{1, 2, 3, 4})
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	r.ReadBytes(100, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatal("unflushed WriteBytes survived crash")
	}
	r.WriteBytes(100, []byte{1, 2, 3, 4})
	r.FlushRange(100, 4)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r.ReadBytes(100, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("flushed WriteBytes lost in crash")
	}
}

func TestZero(t *testing.T) {
	r := NewRegion(4096, Config{})
	for off := uint64(0); off < 256; off += 8 {
		r.Store(off, ^uint64(0))
	}
	r.Zero(64, 128)
	for off := uint64(0); off < 256; off += 8 {
		want := ^uint64(0)
		if off >= 64 && off < 192 {
			want = 0
		}
		if got := r.Load(off); got != want {
			t.Fatalf("word %d = %#x, want %#x", off, got, want)
		}
	}
}

func TestConcurrentCASCounter(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	const goroutines, incs = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				for {
					v := r.Load(0)
					if r.CAS(0, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Load(0); got != goroutines*incs {
		t.Fatalf("counter = %d, want %d", got, goroutines*incs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := NewRegion(1<<14, Config{Mode: ModeCrashSim})
	rng := rand.New(rand.NewSource(1))
	for off := uint64(0); off < r.Size(); off += 8 {
		r.Store(off, rng.Uint64())
	}
	r.Persist()
	path := filepath.Join(t.TempDir(), "heap.img")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadFile(path, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != r.Size() {
		t.Fatalf("size = %d, want %d", r2.Size(), r.Size())
	}
	for off := uint64(0); off < r.Size(); off += 8 {
		if r2.Load(off) != r.Load(off) {
			t.Fatalf("word %#x differs after save/load", off)
		}
	}
	// The loaded image must already be persistent: crash right away.
	if err := r2.Crash(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < r.Size(); off += 8 {
		if r2.Load(off) != r.Load(off) {
			t.Fatalf("word %#x lost after load+crash", off)
		}
	}
}

func TestSaveExcludesUnflushed(t *testing.T) {
	// Saving persists the shadow image: unflushed stores must not leak
	// into the file.
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 7)
	r.Flush(0)
	r.Store(64, 9) // not flushed
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegion(&buf, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Load(0) != 7 {
		t.Fatal("flushed word missing from image")
	}
	if r2.Load(64) != 0 {
		t.Fatal("unflushed word leaked into image")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadRegion(bytes.NewReader([]byte("not an image")), Config{}); err == nil {
		t.Fatal("expected error for garbage image")
	}
}

func TestStoreHookFires(t *testing.T) {
	n := 0
	r := NewRegion(1024, Config{StoreHook: func() { n++ }})
	r.Store(0, 1)
	r.CAS(0, 1, 2)
	r.Add(0, 1)
	if n != 3 {
		t.Fatalf("hook fired %d times, want 3", n)
	}
}

// TestFlushedStoreReachesShadowBesideNeighbour: two goroutines each Store and
// Flush their own word of one cache line. Once both have returned, the shadow
// must hold each one's last flushed value — which takes both halves of the
// write-back rule: the dirty flag is set after the store (set before it, the
// neighbour's write-back can clear the flag and copy the old word, leaving
// the new one volatile-only on a clean line), and the clear+copy of a line is
// exclusive (else the slower of two write-backs lands an older copy last).
// With both defects the test fails about every other run; with only the flag
// order wrong three in ten; with only the lock missing one in thirty.
func TestFlushedStoreReachesShadowBesideNeighbour(t *testing.T) {
	const rounds, ops = 20_000, 50
	r := NewRegion(LineBytes, Config{Mode: ModeCrashSim})
	for round := uint64(0); round < rounds; round++ {
		var wg sync.WaitGroup
		for _, off := range []uint64{0, WordBytes} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); i <= ops; i++ {
					r.Store(off, round*ops+i)
					r.Flush(off)
				}
			}()
		}
		wg.Wait()
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		for _, off := range []uint64{0, WordBytes} {
			if got, want := r.Load(off), round*ops+ops; got != want {
				t.Fatalf("round %d: word %d = %d after the crash, want the flushed %d", round, off, got, want)
			}
		}
	}
}
