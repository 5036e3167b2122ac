// Package alloctest provides a conformance suite that every allocator in
// this repository — Ralloc and the four baselines — must pass. Workloads
// and applications treat allocators interchangeably, so the suite pins down
// the contract: distinct non-overlapping blocks, cross-handle free,
// usability of the full extent, large allocations, OOM behavior, and
// concurrent correctness. Crasher is every crash sweep's store-hook injector.
package alloctest

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/sizeclass"
)

// Factory builds a fresh allocator with roughly the given heap size.
type Factory func(heapSize uint64) (alloc.Allocator, error)

// Run executes the full conformance suite against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("Basic", func(t *testing.T) { testBasic(t, f) })
	t.Run("DistinctNonOverlapping", func(t *testing.T) { testDistinct(t, f) })
	t.Run("WriteWholeBlock", func(t *testing.T) { testWholeBlock(t, f) })
	t.Run("CrossHandleFree", func(t *testing.T) { testCrossHandle(t, f) })
	t.Run("Large", func(t *testing.T) { testLarge(t, f) })
	t.Run("OOMThenRecoverByFree", func(t *testing.T) { testOOM(t, f) })
	t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, f) })
	t.Run("FreeNil", func(t *testing.T) { testFreeNil(t, f) })
}

func mk(t *testing.T, f Factory, size uint64) alloc.Allocator {
	t.Helper()
	a, err := f(size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testBasic(t *testing.T, f Factory) {
	a := mk(t, f, 16<<20)
	defer a.Close()
	hd := a.NewHandle()
	off := hd.Malloc(64)
	if off == 0 || off%8 != 0 {
		t.Fatalf("%s: Malloc = %#x", a.Name(), off)
	}
	a.Region().Store(off, 42)
	if a.Region().Load(off) != 42 {
		t.Fatalf("%s: block not writable", a.Name())
	}
	hd.Free(off)
}

func testDistinct(t *testing.T, f Factory) {
	a := mk(t, f, 32<<20)
	defer a.Close()
	hd := a.NewHandle()
	rng := rand.New(rand.NewSource(7))
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for i := 0; i < 3000; i++ {
		size := uint64(1 + rng.Intn(400))
		off := hd.Malloc(size)
		if off == 0 {
			t.Fatalf("%s: OOM at %d", a.Name(), i)
		}
		ivs = append(ivs, iv{off, off + size})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].lo < ivs[i-1].hi {
			t.Fatalf("%s: overlapping blocks [%#x,%#x) [%#x,%#x)", a.Name(),
				ivs[i-1].lo, ivs[i-1].hi, ivs[i].lo, ivs[i].hi)
		}
	}
}

func testWholeBlock(t *testing.T, f Factory) {
	a := mk(t, f, 16<<20)
	defer a.Close()
	hd := a.NewHandle()
	r := a.Region()
	for _, size := range []uint64{8, 64, 400, 4096, 14336} {
		off := hd.Malloc(size)
		if off == 0 {
			t.Fatalf("%s: OOM for size %d", a.Name(), size)
		}
		for o := off; o+8 <= off+size; o += 8 {
			r.Store(o, o)
		}
		for o := off; o+8 <= off+size; o += 8 {
			if r.Load(o) != o {
				t.Fatalf("%s: size %d: word %#x corrupted", a.Name(), size, o)
			}
		}
	}
}

func testCrossHandle(t *testing.T, f Factory) {
	a := mk(t, f, 16<<20)
	defer a.Close()
	p, q := a.NewHandle(), a.NewHandle()
	var offs []uint64
	for i := 0; i < 2000; i++ {
		off := p.Malloc(128)
		if off == 0 {
			t.Fatalf("%s: OOM", a.Name())
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		q.Free(off)
	}
	for i := 0; i < 2000; i++ {
		if q.Malloc(128) == 0 {
			t.Fatalf("%s: OOM after cross-handle frees", a.Name())
		}
	}
}

func testLarge(t *testing.T, f Factory) {
	a := mk(t, f, 32<<20)
	defer a.Close()
	hd := a.NewHandle()
	r := a.Region()
	off := hd.Malloc(1 << 20)
	if off == 0 {
		t.Fatalf("%s: 1 MB Malloc failed", a.Name())
	}
	r.Store(off, 1)
	r.Store(off+1<<20-8, 2)
	if r.Load(off) != 1 || r.Load(off+1<<20-8) != 2 {
		t.Fatalf("%s: large block extent unusable", a.Name())
	}
	hd.Free(off)
	if hd.Malloc(1<<20) == 0 {
		t.Fatalf("%s: large block not reusable", a.Name())
	}
}

func testOOM(t *testing.T, f Factory) {
	a := mk(t, f, 4<<20)
	defer a.Close()
	hd := a.NewHandle()
	var got []uint64
	for {
		off := hd.Malloc(14336)
		if off == 0 {
			break
		}
		got = append(got, off)
		if len(got) > 1<<20 {
			t.Fatalf("%s: never reported OOM", a.Name())
		}
	}
	if len(got) == 0 {
		t.Fatalf("%s: nothing allocated before OOM", a.Name())
	}
	for _, off := range got {
		hd.Free(off)
	}
	if hd.Malloc(14336) == 0 {
		t.Fatalf("%s: allocation failing after frees", a.Name())
	}
}

func testConcurrent(t *testing.T, f Factory) {
	a := mk(t, f, 64<<20)
	defer a.Close()
	const goroutines = 8
	const ops = 8000
	results := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hd := a.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			var live []uint64
			for i := 0; i < ops; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					hd.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					off := hd.Malloc(uint64(8 + rng.Intn(393)))
					if off == 0 {
						t.Errorf("%s: OOM under concurrency", a.Name())
						return
					}
					live = append(live, off)
				}
			}
			results[g] = live
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for g, live := range results {
		for _, off := range live {
			if prev, dup := seen[off]; dup {
				t.Fatalf("%s: block %#x live in goroutines %d and %d", a.Name(), off, prev, g)
			}
			seen[off] = g
		}
	}
}

func testFreeNil(t *testing.T, f Factory) {
	a := mk(t, f, 4<<20)
	defer a.Close()
	a.NewHandle().Free(0)
}

// Churn is a helper for allocator smoke benchmarks in other packages: one
// handle performing n alloc/free pairs of the given size.
func Churn(hd alloc.Handle, n int, size uint64) {
	for i := 0; i < n; i++ {
		hd.Free(hd.Malloc(size))
	}
}

// RoundFor mirrors what a workload can assume about block capacity.
func RoundFor(size uint64) uint64 { return sizeclass.Round(size) }

// Crasher simulates a power failure at a chosen store. Installed as a
// region's pmem.Config.StoreHook (Hook), it panics at the n-th store after
// Arm(n); Run catches that panic and no other. Its counts are atomic, so the
// stores may come from several goroutines — recovery's parallel workers —
// armed or not; the one that makes the n-th panics, and a worker's panic
// reaches Run only if the code under test hands it to Run's goroutine.
type Crasher struct{ armed, stores atomic.Int64 } // armed 0 = disarmed

type crashed struct{}

// Hook is the StoreHook.
func (c *Crasher) Hook() {
	if n := c.armed.Load(); n != 0 && c.stores.Add(1) == n {
		c.armed.Store(0)
		panic(crashed{})
	}
}

// Arm makes the n-th store from now the last (0 disarms; math.MaxInt counts).
func (c *Crasher) Arm(n int) { c.stores.Store(0); c.armed.Store(int64(n)) }

// Stores reports the stores seen since the last Arm.
func (c *Crasher) Stores() int { return int(c.stores.Load()) }

// Run runs fn, disarms, and reports whether the armed store cut fn short.
func (c *Crasher) Run(fn func()) (cut bool) {
	defer func() {
		c.armed.Store(0)
		if r := recover(); r != nil {
			if cut = true; r != (crashed{}) {
				panic(r)
			}
		}
	}()
	fn()
	return false
}

// At runs fn with the crash armed at its n-th store.
func (c *Crasher) At(n int, fn func()) bool { c.Arm(n); return c.Run(fn) }
