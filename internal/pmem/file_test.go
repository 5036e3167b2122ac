package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"unsafe"
)

// refImage is the image format spelled out with encoding/binary, independent
// of how the Region lays its words out in memory: magic, five little-endian
// header words, then every word of the region little-endian.
func refImage(r *Region, flags uint64) []byte {
	id, off := r.ReplMeta()
	b := append([]byte(nil), "RPMEM003"...)
	for _, w := range []uint64{r.Size(), uint64(r.Mode()), flags, id, off} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for off := uint64(0); off < r.Size(); off += WordBytes {
		b = binary.LittleEndian.AppendUint64(b, r.Load(off))
	}
	return b
}

// TestImageFormatMatchesReferenceEncoder pins RPMEM003 byte for byte: what
// Save and SaveFileOnline write is the reference encoding of the region, and
// loading the reference encoding gives the region back. An image written by
// one build loads on another exactly as long as this holds; in particular the
// Region's byte view must not make the format native-endian.
func TestImageFormatMatchesReferenceEncoder(t *testing.T) {
	for _, mode := range []Mode{ModeFast, ModeCrashSim} {
		r := NewRegion(3*LineBytes, Config{Mode: mode})
		for off := uint64(0); off < r.Size(); off += WordBytes {
			r.Store(off, 0x0807060504030201+off<<32)
		}
		r.WriteBytes(70, []byte("unaligned payload"))
		r.Persist()
		r.SetReplMeta(0xabcdef01, 77123)

		var saved bytes.Buffer
		if err := r.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), refImage(r, 0)) {
			t.Fatalf("%v: Save wrote\n%x, reference encoder\n%x", mode, saved.Bytes(), refImage(r, 0))
		}
		path := filepath.Join(t.TempDir(), "online.img")
		var q quiesceFence
		if _, err := r.SaveFileOnline(path, q.fence); err != nil {
			t.Fatal(err)
		}
		if online, err := os.ReadFile(path); err != nil || !bytes.Equal(online, refImage(r, imageFlagOnline)) {
			t.Fatalf("%v: SaveFileOnline wrote\n%x (%v), reference encoder\n%x", mode, online, err, refImage(r, imageFlagOnline))
		}

		got, err := LoadRegion(bytes.NewReader(refImage(r, 0)), Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if id, off := got.ReplMeta(); id != 0xabcdef01 || off != 77123 {
			t.Fatalf("%v: loaded ReplMeta = (%#x, %d)", mode, id, off)
		}
		for pass := 0; pass < 2; pass++ { // as loaded, then as the loaded shadow has it
			for off := uint64(0); off < r.Size(); off += WordBytes {
				if got.Load(off) != r.Load(off) {
					t.Fatalf("%v pass %d: word %#x = %#x, want %#x", mode, pass, off, got.Load(off), r.Load(off))
				}
			}
			if mode == ModeFast {
				break
			}
			if err := got.Crash(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadRegionRejectsModeMismatch: an image carries the Mode it was saved
// under; attaching it under the other mode would silently change its
// durability semantics (a crash-sim image would lose its shadow, a fast
// image would gain one it never earned). Both directions are ErrBadImage.
func TestLoadRegionRejectsModeMismatch(t *testing.T) {
	for _, tc := range []struct{ save, load Mode }{
		{ModeCrashSim, ModeFast},
		{ModeFast, ModeCrashSim},
	} {
		r := NewRegion(4096, Config{Mode: tc.save})
		r.Store(0, 42)
		r.Persist()
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRegion(&buf, Config{Mode: tc.load})
		if !errors.Is(err, ErrBadImage) {
			t.Fatalf("load %v image as %v: err = %v, want ErrBadImage", tc.save, tc.load, err)
		}
	}
}

// TestLoadRegionRejectsGarbageModeWord: a corrupt mode word (neither fast
// nor crashsim) is a bad image, not a zero-value fallback.
func TestLoadRegionRejectsGarbageModeWord(t *testing.T) {
	var buf bytes.Buffer
	if err := writeImageHeader(&buf, LineBytes, Mode(7), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, LineBytes))
	if _, err := LoadRegion(&buf, Config{}); !errors.Is(err, ErrBadImage) {
		t.Fatalf("err = %v, want ErrBadImage", err)
	}
}

// hostileHeader is a header-only image whose size word claims 4 EiB.
func hostileHeader(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := writeImageHeader(&buf, 1<<62, ModeFast, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadFileRejectsHostileSizeWord: image files arrive over the network
// (replica bootstrap), so a header whose size word disagrees with the file's
// own length must fail before the region is sized from it — 1<<62 would
// otherwise panic in make or take the process down with it.
func TestLoadFileRejectsHostileSizeWord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.img")
	if err := os.WriteFile(path, hostileHeader(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, Config{}); !errors.Is(err, ErrBadImage) {
		t.Fatalf("err = %v, want ErrBadImage", err)
	}
	// One line too many is as wrong as too few.
	r := NewRegion(LineBytes, Config{})
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, LineBytes))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, Config{}); !errors.Is(err, ErrBadImage) {
		t.Fatalf("oversized file: err = %v, want ErrBadImage", err)
	}
}

// FuzzLoadFile: whatever bytes the image file holds, LoadFile returns a
// region of exactly the file's payload size or ErrBadImage — never a panic,
// never an allocation sized by the header alone.
func FuzzLoadFile(f *testing.F) {
	f.Add(hostileHeader(f))
	r := NewRegion(2*LineBytes, Config{})
	r.Store(8, 0xFEED)
	var valid bytes.Buffer
	if err := r.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	path := filepath.Join(f.TempDir(), "fuzz.img")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path, Config{})
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("err = %v, want ErrBadImage", err)
			}
			return
		}
		if got.Size() != uint64(len(data)-imageHeaderLen) {
			t.Fatalf("loaded %d bytes from a %d-byte file", got.Size(), len(data))
		}
	})
}

// TestLoadFileTruncatedIsBadImage: every truncation of a checkpoint file —
// the torn output a crash mid-SaveFile leaves in the temp file — must fail
// with ErrBadImage, never half-load.
func TestLoadFileTruncatedIsBadImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.img")
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	for off := uint64(0); off < r.Size(); off += 8 {
		r.Store(off, off+3)
	}
	r.Persist()
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 8, 15, imageHeaderLen - 1, imageHeaderLen,
		imageHeaderLen + 7, len(full) / 2, len(full) - 1} {
		p := filepath.Join(dir, "trunc.img")
		if err := os.WriteFile(p, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(p, Config{Mode: ModeCrashSim}); !errors.Is(err, ErrBadImage) {
			t.Fatalf("truncation at %d bytes: err = %v, want ErrBadImage", n, err)
		}
	}
	// The untruncated file still round-trips.
	r2, err := LoadFile(path, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Load(8) != 11 {
		t.Fatalf("round trip word = %d, want 11", r2.Load(8))
	}
}

// TestSaveFileErrorPaths: a failed publish must not leave the temp file
// behind, and must surface the error (the caller's dirty-flag protocol
// depends on seeing it).
func TestSaveFileErrorPaths(t *testing.T) {
	r := NewRegion(4096, Config{})
	// Create failure: parent directory missing.
	if err := r.SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.img")); err == nil {
		t.Fatal("SaveFile into missing directory succeeded")
	}
	// Rename failure: the target path is an (empty) directory.
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveFile(target); err == nil {
		t.Fatal("SaveFile over a directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after failed rename: %v", err)
	}
	// Online path, same discipline.
	var q quiesceFence
	if _, err := r.SaveFileOnline(target, q.fence); err == nil {
		t.Fatal("SaveFileOnline over a directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after failed online rename: %v", err)
	}
}

// TestReplMetaRoundTrip: the replication metadata pair survives both save
// paths and the load, and reads back via ReadImageMeta without attaching.
func TestReplMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repl.img")
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 42)
	r.Flush(0)
	r.Fence()
	r.SetReplMeta(0xabcdef01, 77123)
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	id, off, err := ReadImageMeta(path)
	if err != nil || id != 0xabcdef01 || off != 77123 {
		t.Fatalf("ReadImageMeta = (%#x, %d, %v), want (0xabcdef01, 77123, nil)", id, off, err)
	}
	r2, err := LoadFile(path, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if id, off := r2.ReplMeta(); id != 0xabcdef01 || off != 77123 {
		t.Fatalf("loaded ReplMeta = (%#x, %d)", id, off)
	}

	// Online path: the meta visible at the cut-over fence wins, even if the
	// header was first streamed with a stale value.
	r.SetReplMeta(0xabcdef01, 1)
	_, err = r.SaveFileOnline(path, func(cut func() error) error {
		r.SetReplMeta(0xabcdef01, 99000)
		return cut()
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, off, _ := ReadImageMeta(path); id != 0xabcdef01 || off != 99000 {
		t.Fatalf("online ReadImageMeta = (%#x, %d), want fence-time value 99000", id, off)
	}
}

// TestLoadRegionMostlyZeroImage: a crash-sim image that is mostly zero lines
// loads into a shadow holding exactly its flushed words — so a crash right
// after the load changes nothing — and the load touches only the shadow
// pages under a non-zero line.
func TestLoadRegionMostlyZeroImage(t *testing.T) {
	const size, stride = 4 << 20, 256 << 10
	r := NewRegion(size, Config{Mode: ModeCrashSim})
	want := map[uint64]uint64{}
	for off := uint64(0); off < size; off += stride {
		r.Store(off, off|1)
		r.Flush(off)
		want[off] = off | 1
		r.Store(off+LineBytes, 7) // never flushed: not in the image
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegion(&buf, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, size/os.Getpagesize())
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&r2.shadow[0])), size, uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatal("mincore:", errno)
	}
	resident := 0
	for _, v := range vec {
		resident += int(v & 1)
	}
	if resident > len(want) {
		t.Fatalf("loading %d non-zero lines touched %d shadow pages", len(want), resident)
	}
	if err := r2.Crash(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < size; off += WordBytes {
		if got := r2.Load(off); got != want[off] {
			t.Fatalf("word %#x = %#x after load and crash, want %#x", off, got, want[off])
		}
	}
}
