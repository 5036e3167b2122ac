package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// mapTemp maps a fresh file of the given region size under the test's
// directory.
func mapTemp(t testing.TB, size uint64) (*Region, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.img")
	r, err := MapFile(path, size, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r, path
}

// TestBadImagesRefusedByLoadFileAndMapFile is the one table of files that are
// not images, put to both ways of opening one: each is ErrBadImage, and
// MapFile leaves the file as it found it — it refused before it mapped,
// extended or restamped anything.
func TestBadImagesRefusedByLoadFileAndMapFile(t *testing.T) {
	var good bytes.Buffer
	r := NewRegion(4*LineBytes, Config{})
	r.Store(8, 0xFEED)
	r.SetReplMeta(7, 9)
	if err := r.Save(&good); err != nil {
		t.Fatal(err)
	}
	edit := func(fn func(b []byte) []byte) []byte { return fn(bytes.Clone(good.Bytes())) }
	word := func(off int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
	}
	cases := map[string][]byte{
		"truncated header":        good.Bytes()[:imageHeaderLen-1],
		"three bytes":             good.Bytes()[:3],
		"bad magic":               edit(func(b []byte) []byte { b[7] = '2'; return b }),
		"zero size word":          edit(word(8, 0)),
		"size not whole lines":    edit(word(8, 4*LineBytes-8)),
		"size word past the file": edit(word(8, 1<<62)),
		"hostile header alone":    hostileHeader(t),
		"header alone":            good.Bytes()[:imageHeaderLen],
		"one word short":          good.Bytes()[:good.Len()-8],
		"one line long":           append(bytes.Clone(good.Bytes()), make([]byte, LineBytes)...),
		"garbage mode word":       edit(word(16, 7)),
		"crash-sim image":         edit(word(16, uint64(ModeCrashSim))),
	}
	path := filepath.Join(t.TempDir(), "bad.img")
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path, Config{}); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: LoadFile err = %v, want ErrBadImage", name, err)
		}
		// 2 lines: not the size any header in the table claims.
		if _, err := MapFile(path, 2*LineBytes, Config{}); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: MapFile err = %v, want ErrBadImage", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s: MapFile changed the file it refused (%v)", name, err)
		}
	}
	if _, err := MapFile(path, 4*LineBytes, Config{Mode: ModeCrashSim}); err == nil || errors.Is(err, ErrBadImage) {
		t.Errorf("MapFile in crash-sim mode: err = %v, want a refusal of the mode", err)
	}
	if _, err := MapFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.img"), 4*LineBytes, Config{}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("MapFile under a missing directory: err = %v", err)
	}
}

// FuzzMapFile is FuzzLoadFile's twin, on its corpus: whatever bytes the file
// holds, MapFile returns a region of exactly the file's payload size or
// ErrBadImage — never a panic, a SIGBUS, or a mapping sized by the header
// alone. (An empty file, and a header alone that claims the size asked for,
// are files whose creation was cut short: those it finishes.)
func FuzzMapFile(f *testing.F) {
	f.Add(hostileHeader(f))
	r := NewRegion(2*LineBytes, Config{})
	r.Store(8, 0xFEED)
	var valid bytes.Buffer
	if err := r.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:imageHeaderLen])
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "fuzz.img")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := MapFile(path, 2*LineBytes, Config{})
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("err = %v, want ErrBadImage", err)
			}
			return
		}
		fi, err := os.Stat(path)
		if err != nil || got.Size() != uint64(fi.Size())-imageHeaderLen {
			t.Fatalf("mapped %d bytes from a file now %d long (%v)", got.Size(), fi.Size(), err)
		}
		if len(data) > imageHeaderLen && fi.Size() != int64(len(data)) {
			t.Fatalf("MapFile resized a %d-byte image to %d", len(data), fi.Size())
		}
		got.Store(got.Size()-WordBytes, 1) // the last word is backed by the file
	})
}

// TestMapFileStoresOutliveTheMapping: the file is the region. Stores made
// through one mapping that is dropped without any close are all there in the
// next one — word stores, byte stores, flushed or not — and a file whose
// creation stopped after the header (or before it) is finished as a fresh,
// zeroed region.
func TestMapFileStoresOutliveTheMapping(t *testing.T) {
	r, path := mapTemp(t, 64*LineBytes)
	if !r.Mapped() || r.Size() != 64*LineBytes {
		t.Fatalf("fresh mapping: Mapped %v, Size %d", r.Mapped(), r.Size())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != imageHeaderLen+64*LineBytes {
		t.Fatalf("created file is %d bytes (%v)", fi.Size(), err)
	}
	for off := uint64(0); off < r.Size(); off += WordBytes {
		r.Store(off, off^0xA5A5)
	}
	r.WriteBytes(131, []byte("unaligned payload"))
	// No Sync, no unmap: the second mapping sees what a kill would leave.
	r2, err := MapFile(path, 0, Config{}) // an existing file brings its own size
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("unaligned payload")
	if got := make([]byte, len(want)); !r2.EqualBytes(131, want) {
		r2.ReadBytes(131, got)
		t.Fatalf("bytes at 131 = %q", got)
	}
	for off := uint64(0); off < r2.Size(); off += WordBytes {
		if off >= 128 && off < 152 {
			continue // under the payload
		}
		if got := r2.Load(off); got != off^0xA5A5 {
			t.Fatalf("word %#x = %#x after remap, want %#x", off, got, off^0xA5A5)
		}
	}

	for _, n := range []int64{0, imageHeaderLen} {
		if err := os.Truncate(path, n); err != nil {
			t.Fatal(err)
		}
		r3, err := MapFile(path, 64*LineBytes, Config{})
		if err != nil {
			t.Fatalf("file cut to %d bytes: %v", n, err)
		}
		for off := uint64(0); off < r3.Size(); off += WordBytes {
			if r3.Load(off) != 0 {
				t.Fatalf("file cut to %d bytes: word %#x of the finished region is not zero", n, off)
			}
		}
	}
}

// TestMapFileSurvivesSIGKILL is the same across a real process death: a child
// maps the file, stores, and kills itself with SIGKILL — no exit handler, no
// msync, no unmap — and the parent maps what it left.
func TestMapFileSurvivesSIGKILL(t *testing.T) {
	const words = 4096
	if path := os.Getenv("PMEM_TEST_KILL_SELF"); path != "" {
		r, err := MapFile(path, words*WordBytes, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < words; i++ {
			r.Store(i*WordBytes, i*i+1)
		}
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // not reached
	}
	path := filepath.Join(t.TempDir(), "killed.img")
	cmd := exec.Command(os.Args[0], "-test.run=^TestMapFileSurvivesSIGKILL$")
	cmd.Env = append(os.Environ(), "PMEM_TEST_KILL_SELF="+path)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("child: err = %v, want a SIGKILL\n%s", err, out)
	}
	r, err := MapFile(path, words*WordBytes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < words; i++ {
		if got := r.Load(i * WordBytes); got != i*i+1 {
			t.Fatalf("word %d = %d after the child's SIGKILL, want %d", i, got, i*i+1)
		}
	}
}

// TestMappedAndSavedImagesAreOneFormat, both directions: an image
// SaveFileOnline wrote maps, and a mapped region that was Synced loads — and
// along the way the feed-position rule: MapFile moves the header's pair into
// the Region and zeroes it in the file, and only Sync writes one back.
func TestMappedAndSavedImagesAreOneFormat(t *testing.T) {
	src := NewRegion(8*LineBytes, Config{})
	for off := uint64(0); off < src.Size(); off += WordBytes {
		src.Store(off, off+3)
	}
	src.SetReplMeta(0xabcdef01, 77123)
	saved := filepath.Join(t.TempDir(), "saved.img")
	var q quiesceFence
	if _, err := src.SaveFileOnline(saved, q.fence); err != nil {
		t.Fatal(err)
	}

	m, err := MapFile(saved, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if id, off := m.ReplMeta(); id != 0xabcdef01 || off != 77123 {
		t.Fatalf("mapped ReplMeta = (%#x, %d)", id, off)
	}
	if id, off, err := ReadImageMeta(saved); err != nil || id != 0 || off != 0 {
		t.Fatalf("a live heap's file is stamped (%#x, %d), %v: a killed process would resume from there", id, off, err)
	}
	for off := uint64(0); off < m.Size(); off += WordBytes {
		if m.Load(off) != off+3 {
			t.Fatalf("mapped word %#x = %#x", off, m.Load(off))
		}
	}
	m.Store(16, 0xC0FFEE)
	m.SetReplMeta(0xabcdef01, 88000)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if id, off, err := ReadImageMeta(saved); err != nil || id != 0xabcdef01 || off != 88000 {
		t.Fatalf("synced file is stamped (%#x, %d), %v", id, off, err)
	}
	l, err := LoadFile(saved, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if id, off := l.ReplMeta(); l.Load(16) != 0xC0FFEE || l.Load(24) != 27 || id != 0xabcdef01 || off != 88000 {
		t.Fatalf("loaded after Sync: word 16 = %#x, word 24 = %d, ReplMeta (%#x, %d)", l.Load(16), l.Load(24), id, off)
	}
	if err := src.Sync(); err != nil || src.Mapped() {
		t.Fatalf("Sync on a slice-backed region: %v (Mapped %v)", err, src.Mapped())
	}
}

// TestSnapshotRefusesTheMappedFile: publishing a snapshot renames it over its
// target, and a process whose heap is a mapping of that target would go on
// storing to a file without a name. Any other path is a backup.
func TestSnapshotRefusesTheMappedFile(t *testing.T) {
	r, path := mapTemp(t, 8*LineBytes)
	r.Store(8, 42)
	var q quiesceFence
	link := filepath.Join(filepath.Dir(path), "alias.img")
	if err := os.Symlink(path, link); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{path, link} {
		if _, err := r.SaveFileOnline(target, q.fence); err == nil {
			t.Fatalf("SaveFileOnline(%s) over the mapped file succeeded", target)
		}
	}
	if _, err := r.SaveFileOnline(path+".save", q.fence); err != nil {
		t.Fatal(err)
	}
	if b, err := LoadFile(path+".save", Config{}); err != nil || b.Load(8) != 42 {
		t.Fatalf("backup image: %v", err)
	}
	r.Store(8, 43) // the mapping is still the file
	if r2, err := MapFile(path, 0, Config{}); err != nil || r2.Load(8) != 43 {
		t.Fatalf("the heap file after a backup: %v", err)
	}
}

// span is an address range [lo, hi) of this process.
type span struct{ lo, hi uintptr }

func spanOf[T any](s []T) span {
	lo := uintptr(unsafe.Pointer(&s[0]))
	return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

// mapped reports whether one mapping in /proc/self/maps covers s. Adjacent
// anonymous mappings merge into one line there, so a dropped mapping is told
// apart by its addresses, not by its size.
func mapped(t *testing.T, s span) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps:", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= s.lo && s.hi <= hi {
			return true
		}
	}
	return false
}

// useCrashSimRegion stores to, flushes, online-saves and crashes a crash-sim
// region, then drops it. It returns where its shadow and flags were mapped,
// and the save's barrier flags, each checked to be mapped while in use.
func useCrashSimRegion(t *testing.T, size uint64, seed int64) (spans []span) {
	var r *Region
	r = NewRegion(size, Config{Mode: ModeCrashSim, EvictProb: 0.5, Seed: seed, SnapshotHook: func(SnapshotPhase) {
		if tr := r.snap.Load(); tr != nil && len(spans) == 1 {
			spans = append(spans, spanOf(tr.dirty))
			if !mapped(t, spans[1]) {
				t.Error("an online save's barrier flags are not mapped during the save")
			}
		}
	}})
	spans = append(spans, span{spanOf(r.shadow).lo, spanOf(r.dirty).hi})
	for off := uint64(0); off < size; off += 4096 + LineBytes {
		r.Store(off, uint64(seed)+off|1)
		if off%3 == 0 {
			r.Flush(off)
		}
	}
	var q quiesceFence
	if _, err := r.SaveFileOnline(filepath.Join(t.TempDir(), "heap.img"), q.fence); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if !mapped(t, spans[0]) {
		t.Fatal("a live crash-sim region's shadow is not mapped")
	}
	return spans
}

// TestDroppedCrashSimRegionIsUnmapped: a crash-sim region's shadow and flags,
// and an online save's barrier flags, are mappings outside the Go heap, and
// each is given back once its owner is unreachable.
func TestDroppedCrashSimRegionIsUnmapped(t *testing.T) {
	const size = 8<<20 + 5*LineBytes // not a whole number of pages
	var spans []span
	for seed := int64(1); seed <= 3; seed++ {
		spans = append(spans, useCrashSimRegion(t, size, seed)...)
	}
	if len(spans) != 6 {
		t.Fatalf("found %d mappings, want a region's and a save's for each of 3 regions", len(spans))
	}
	for try := 1; ; try++ {
		runtime.GC() // cleanups run after the cycle, on their own goroutine
		left := 0
		for _, s := range spans {
			if mapped(t, s) {
				left++
			}
		}
		if left == 0 {
			return
		}
		if try == 100 {
			t.Fatalf("%d of %d dropped mappings are still mapped after %d collections", left, len(spans), try)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
