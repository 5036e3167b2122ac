package pmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestStatsExactUnderConcurrency: the counters are striped by goroutine, and
// Stats() must still report exactly what was done once the goroutines have
// stopped — every count row of the benchmark ledger rests on that.
func TestStatsExactUnderConcurrency(t *testing.T) {
	const goroutines, ops, span = 8, 100_000, 4 * LineBytes
	r := NewRegion(goroutines*span, Config{Mode: ModeCrashSim})
	var want Stats
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			var s Stats
			dirty := false // line 0 of this goroutine's span, the only one written
			flushed := func() {
				if dirty {
					s.LinesBack++
					dirty = false
				}
			}
			for i := 0; i < ops; i++ {
				switch i % 7 {
				case 0:
					r.Load(base)
					s.Loads++
				case 1:
					r.Store(base, uint64(i))
					s.Stores++
					dirty = true
				case 2:
					r.CAS(base+8, 0, 1)
					s.CASes++
					dirty = true
				case 3:
					r.Add(base+16, 1)
					s.CASes++
					dirty = true
				case 4:
					r.Flush(base)
					s.Flushes++
					flushed()
				case 5:
					r.FlushRange(base, span)
					s.Flushes += span / LineBytes
					flushed()
				case 6:
					r.Fence()
					s.Fences++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			want.Loads += s.Loads
			want.Stores += s.Stores
			want.CASes += s.CASes
			want.Flushes += s.Flushes
			want.Fences += s.Fences
			want.LinesBack += s.LinesBack
		}(uint64(g) * span)
	}
	wg.Wait()
	if got := r.Stats(); got != want { // a fresh Region starts from zero
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestRegionOpsNoAlloc pins that the stack marker obs.StripeIndex takes the
// address of stays on the stack: a counted access must not allocate. Nor may
// a byte accessor, which is a stdlib call over the Region's byte view — a Go
// slice's or a mapped file's.
func TestRegionOpsNoAlloc(t *testing.T) {
	var c obs.Counter
	payload := make([]byte, 100)
	mapped, _ := mapTemp(t, 4096)
	for medium, r := range map[string]*Region{
		"fast":     NewRegion(4096, Config{Mode: ModeFast}),
		"crashsim": NewRegion(4096, Config{Mode: ModeCrashSim}),
		"mapped":   mapped,
	} {
		for name, op := range map[string]func(){
			"Load":        func() { r.Load(64) },
			"Store":       func() { r.Store(64, 1) },
			"CAS":         func() { r.CAS(64, 1, 1) },
			"Add":         func() { r.Add(72, 1) },
			"Flush":       func() { r.Flush(64) },
			"FlushRange":  func() { r.FlushRange(0, 256) },
			"Fence":       func() { r.Fence() },
			"WriteBytes":  func() { r.WriteBytes(131, payload) },
			"ReadBytes":   func() { r.ReadBytes(131, payload) },
			"EqualBytes":  func() { r.EqualBytes(131, payload) },
			"Zero":        func() { r.Zero(128, 104) },
			"Counter.Add": func() { c.Add(1) },
		} {
			if n := testing.AllocsPerRun(1000, op); n != 0 {
				t.Errorf("%s %s: %v allocs per call, want 0", medium, name, n)
			}
		}
	}
}

var loadSink atomic.Uint64

// benchRegionLoad times Region.Load on long-lived goroutines that each walk
// their own lines: the only thing they can share is the Region's counters.
// ns/op is per load per goroutine, so it stays flat when nothing is shared.
func benchRegionLoad(b *testing.B, goroutines int) {
	if runtime.GOMAXPROCS(0) < goroutines {
		b.Skipf("needs GOMAXPROCS >= %d", goroutines)
	}
	const span = 64 * LineBytes
	benchMedia(b, uint64(goroutines)*span, func(b *testing.B, r *Region) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(base uint64) {
				defer wg.Done()
				var sum uint64
				for i := 0; i < b.N; i++ {
					sum += r.Load(base + uint64(i)%(span/WordBytes)*WordBytes)
				}
				loadSink.Add(sum)
			}(uint64(g) * span)
		}
		wg.Wait()
	})
}

func BenchmarkRegionLoad(b *testing.B)          { benchRegionLoad(b, 1) }
func BenchmarkRegionLoadParallel2(b *testing.B) { benchRegionLoad(b, 2) }
