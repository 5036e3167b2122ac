package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/jemal"
	"repro/internal/lrmalloc"
	"repro/internal/makalu"
	"repro/internal/obs"
	"repro/internal/pmdk"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Per-layer rows of the two bottom layers and of obs.

// servedPmem is the region configuration ralloc-serve runs with: a shadow
// image and dirty tracking, no modelled latency.
var servedPmem = pmem.Config{Mode: pmem.ModeCrashSim}

// sink keeps measured loads from being optimised away.
var sink uint64

// layerPmem prices the region's word and byte operations as the server pays
// them. Offsets walk the cache lines of a 4 MB window in a scattered order.
func layerPmem(r *run, t *tracer) error {
	const window = 4 << 20
	n := r.sc.traceOps * 10
	reg := pmem.NewRegion(64<<20, servedPmem)
	at := func(i int) uint64 { return uint64(i) * 0x9E3779B1 % (window / pmem.LineBytes) * pmem.LineBytes }
	// Touch both windows (volatile and shadow image) before timing, so no
	// row pays the first-touch page faults.
	for off := uint64(0); off < 2*window; off += pmem.LineBytes {
		reg.Store(off, 1)
		reg.Flush(off)
	}

	r.set("pmem.load.ns", t.measure("pmem.load", n, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += reg.Load(at(i))
		}
	}).ns)
	r.set("pmem.store.ns", t.measure("pmem.store", n, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.Store(at(i), uint64(i))
		}
	}).ns)
	// CAS from a mirrored expected value, so every attempt succeeds.
	mirror := make([]uint64, window/pmem.LineBytes)
	for i := range mirror {
		reg.Store(uint64(i)*pmem.LineBytes, 0)
	}
	casFailed := 0
	r.set("pmem.cas.ns", t.measure("pmem.cas", n, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := at(i)
			m := &mirror[off/pmem.LineBytes]
			if !reg.CAS(off, *m, *m+1) {
				casFailed++
			}
			*m++
		}
	}).ns)
	r.tally.ops += uint64(n)
	r.tally.failed += uint64(casFailed)

	// Flushing a dirty line: dirty every line of the window (untimed), then
	// flush each once.
	lines := min(window/pmem.LineBytes, n)
	var flush []float64
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < lines; i++ {
			reg.Store(uint64(i)*pmem.LineBytes, uint64(rep))
		}
		flush = append(flush, t.measure("pmem.flush_dirty", lines, reg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				reg.Flush(at(i))
			}
		}).ns)
	}
	r.set("pmem.flush_dirty.ns", median(flush))
	r.set("pmem.fence.ns", t.measure("pmem.fence", n, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.Fence()
		}
	}).ns)

	// Byte accessors at a record-like position: 24 bytes into a line, so a
	// 100-byte value straddles two lines as it does behind a node header.
	buf := make([]byte, 1024)
	r.set("pmem.read_bytes_100.ns", t.measure("pmem.read_bytes_100", n/4, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.ReadBytes(at(i)+24, buf[:valLen])
		}
	}).ns)
	r.set("pmem.write_bytes_100.ns", t.measure("pmem.write_bytes_100", n/4, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.WriteBytes(at(i)+24, buf[:valLen])
		}
	}).ns)
	r.set("pmem.write_bytes_1k.ns", t.measure("pmem.write_bytes_1k", n/16, reg, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reg.WriteBytes(at(i)+24, buf)
		}
	}).ns)

	// Two goroutines loading disjoint lines: what the shared statistics line
	// costs once a second thread touches the region.
	r.set("pmem.load_2thr.ns", t.measure("pmem.load_2thr", n, reg, func(lo, hi int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				base, s := uint64(g)*window, uint64(0)
				for i := lo; i < hi; i++ {
					s += reg.Load(base + at(i))
				}
				sink += s
			}()
		}
		wg.Wait()
	}).ns)
	return nil
}

func layerObs(r *run, t *tracer) error {
	n := r.sc.traceOps * 10
	var h obs.Histogram
	r.set("obs.hist_record.ns", t.measure("obs.hist_record", n, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Record(time.Duration(i&0xffff) * time.Nanosecond)
		}
	}).ns)
	var c obs.Counter
	r.set("obs.counter_add.ns", t.measure("obs.counter_add", n, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.Add(1)
		}
	}).ns)
	sink += c.Load() + h.Snapshot().Count
	return nil
}

// allocators are Ralloc and the paper's four comparators, each over a fresh
// 64 MB heap under the paper's cost model. Row names use the allocator's own
// name ("jemalloc" for internal/jemal).
var allocators = []struct {
	name string
	open func() (alloc.Allocator, error)
}{
	{"ralloc", func() (alloc.Allocator, error) {
		h, _, err := ralloc.Open("", ralloc.Config{SBRegion: churnHeapBytes, Pmem: paperCost})
		if err != nil {
			return nil, err
		}
		return h.AsAllocator(), nil
	}},
	{"makalu", func() (alloc.Allocator, error) {
		return makalu.New(makalu.Config{HeapSize: churnHeapBytes, Pmem: paperCost})
	}},
	{"lrmalloc", func() (alloc.Allocator, error) {
		return lrmalloc.New(ralloc.Config{SBRegion: churnHeapBytes, Pmem: paperCost})
	}},
	{"jemalloc", func() (alloc.Allocator, error) {
		return jemal.New(jemal.Config{HeapSize: churnHeapBytes, Pmem: paperCost})
	}},
	{"pmdk", func() (alloc.Allocator, error) {
		return pmdk.New(pmdk.Config{HeapSize: churnHeapBytes, Pmem: paperCost})
	}},
}

// layerRalloc is the paper's Fig. 5 currency: a malloc/free pair and the
// alloc_churn stream (one goroutine, so the counts repeat exactly) on every
// allocator, plus Ralloc's remote-free and large-block paths.
func layerRalloc(r *run, t *tracer) error {
	n := r.sc.traceOps
	steps := genChurn(r.opt.seed, 0, r.sc.churnSlots, r.sc.ringOps)
	for _, al := range allocators {
		a, err := al.open()
		if err != nil {
			return fmt.Errorf("%s: %w", al.name, err)
		}
		reg, hd := a.Region(), a.NewHandle()
		pairFailed := 0
		pair := t.measure(al.name+".pair_64", n, reg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				off := hd.Malloc(64)
				if off == 0 {
					pairFailed++
				}
				hd.Free(off)
			}
		})
		r.set(al.name+".pair_64.ns", pair.ns)

		c := &churner{hd: hd, region: reg, live: make([]liveBlock, r.sc.churnSlots), steps: steps}
		for c.pos < r.sc.churnWarm/8 {
			c.step()
		}
		var refills0 uint64
		rh, isRalloc := hd.(*ralloc.Handle)
		if isRalloc {
			_, _, refills0, _ = rh.Stats()
		}
		churn := t.measure(al.name+".churn", n, reg, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.step()
			}
		})
		r.set(al.name+".churn.ns", churn.ns)
		r.tally.ops += uint64(n) + c.n
		r.tally.failed += uint64(pairFailed) + c.failed

		switch al.name {
		case "ralloc":
			_, _, refills1, _ := rh.Stats()
			r.set("ralloc.pair_64.flushes", pair.flushes)
			r.set("ralloc.pair_64.fences", pair.fences)
			r.set("ralloc.churn.flushes", churn.flushes)
			r.set("ralloc.churn.fences", churn.fences)
			r.set("ralloc.churn.refills_per_kop", float64(refills1-refills0)*1000/float64(n))

			// A block allocated on one handle and freed on another.
			other := a.NewHandle()
			blocks := make([]uint64, chunkOps)
			r.set("ralloc.remote_free.ns", t.measure("ralloc.remote_free", n, reg, func(lo, hi int) {
				for i := range blocks[:hi-lo] {
					blocks[i] = hd.Malloc(64)
				}
				for _, b := range blocks[:hi-lo] {
					other.Free(b)
				}
			}).ns)
			r.set("ralloc.large_1m.ns", t.measure("ralloc.large_1m", max(n/200, 16), reg, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					off := hd.Malloc(1 << 20)
					if off == 0 {
						pairFailed++
					}
					hd.Free(off)
				}
			}).ns)
		case "makalu", "pmdk":
			r.set(al.name+".churn.flushes", churn.flushes)
		}
	}
	// The paper's headline is Ralloc faster than Makalu: a ratio above 1.
	r.set("ralloc.churn_vs_makalu.ratio", r.vals["makalu.churn.ns"]/r.vals["ralloc.churn.ns"])
	return nil
}
