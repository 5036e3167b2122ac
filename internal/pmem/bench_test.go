package pmem

import (
	"path/filepath"
	"testing"
)

// The byte path and the image path priced in package, on the ModeFast medium
// ralloc-serve runs (benchmark/'s pmem.* rows are priced on ModeCrashSim) —
// as a slice and as the mapped file a served heap is; Flush is priced on
// ModeCrashSim, where it copies a line to the shadow. CI runs each once so the
// numbers CHANGES.md quotes stay reproducible.

var (
	benchPayload = make([]byte, 1024)
	equalSink    bool
)

// benchMedia runs fn as two sub-benchmarks: on a slice-backed ModeFast region
// of the given size, and on a mapped one.
func benchMedia(b *testing.B, size uint64, fn func(b *testing.B, r *Region)) {
	b.Run("slice", func(b *testing.B) { fn(b, NewRegion(size, Config{})) })
	b.Run("mmap", func(b *testing.B) {
		r, _ := mapTemp(b, size)
		b.ResetTimer()
		fn(b, r)
	})
}

func benchBytes(b *testing.B, off uint64, n int, op func(r *Region, off uint64, p []byte)) {
	benchMedia(b, 1<<20, func(b *testing.B, r *Region) {
		p := benchPayload[:n]
		r.WriteBytes(off, p) // EqualBytes then compares all n bytes
		b.SetBytes(int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(r, off, p)
		}
	})
}

func BenchmarkWriteBytes100(b *testing.B)          { benchBytes(b, 4096, 100, (*Region).WriteBytes) }
func BenchmarkWriteBytes1k(b *testing.B)           { benchBytes(b, 4096, 1024, (*Region).WriteBytes) }
func BenchmarkWriteBytes100Unaligned(b *testing.B) { benchBytes(b, 4099, 100, (*Region).WriteBytes) }
func BenchmarkReadBytes100(b *testing.B)           { benchBytes(b, 4096, 100, (*Region).ReadBytes) }
func BenchmarkEqualBytes(b *testing.B) {
	benchBytes(b, 4096, 40, func(r *Region, off uint64, p []byte) { equalSink = r.EqualBytes(off, p) })
}

// benchImageRegion is a 256 MB region — ralloc-serve's default heap — with
// its first half populated, as a served heap's image is.
func benchImageRegion() *Region {
	r := NewRegion(256<<20, Config{})
	for off := uint64(0); off < r.Size()/2; off += WordBytes {
		r.Store(off, off|1)
	}
	return r
}

func BenchmarkLoadFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.img")
	if err := benchImageRegion().SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(path, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapFile is what a restart pays for the same image instead: the
// header checks and one mmap, whatever the capacity.
func BenchmarkMapFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.img")
	if err := benchImageRegion().SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapFile(path, 0, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaveFileOnline(b *testing.B) {
	r := benchImageRegion()
	path := filepath.Join(b.TempDir(), "bench.img")
	var q quiesceFence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SaveFileOnline(path, q.fence); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlushDirty(b *testing.B) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	for i := 0; i < b.N; i++ {
		r.Store(64, uint64(i))
		r.Flush(64)
	}
}

func BenchmarkFlushClean(b *testing.B) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	for i := 0; i < b.N; i++ {
		r.Flush(64)
	}
}

// BenchmarkNewCrashSimRegion is what a crash test pays for its medium: a
// 64 MB crash-sim region, one line stored and flushed per 64 KB, a crash, and
// the region dropped.
func BenchmarkNewCrashSimRegion(b *testing.B) {
	const size = 64 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRegion(size, Config{Mode: ModeCrashSim})
		for off := uint64(0); off < size; off += 64 << 10 {
			r.Store(off, off|1)
			r.Flush(off)
		}
		if err := r.Crash(); err != nil {
			b.Fatal(err)
		}
	}
}
