package obs

import (
	"sync/atomic"
	"unsafe"
)

// Stripes is the number of stripes StripeIndex spreads goroutines over.
const Stripes = 64

// paddedUint64 occupies a full cache line (64B on every platform this repo
// targets, 128B-safe would double the footprint for no measured gain), so
// neighboring stripes never false-share.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// StripeIndex returns the calling goroutine's stripe, taken from the address
// of its stack: goroutine stacks are disjoint ranges of at least 2 KB aligned
// to 2 KB, so addr>>11 differs between any two live goroutines. That identity
// costs a LEA, a shift and a mask, and needs no handle threaded through the
// callers; the marker is zero-sized so that taking its address stores nothing
// (a store ahead of the caller's locked add costs more than the add). The
// plain modulus keeps stacks less than 128 KB apart on different stripes; a
// goroutine whose stack moves, or that calls from a frame 2 KB deeper, merely
// adds to another stripe, and sums are unaffected.
func StripeIndex() uint {
	var marker struct{}
	return uint(uintptr(unsafe.Pointer(&marker))>>11) % Stripes
}

// Counter is a striped counter: Add lands on the calling goroutine's stripe
// (StripeIndex), so writers on different goroutines do not bounce one cache
// line between cores, and Load sums. Adding two's complement deltas makes it
// a signed sum, exact once the adders are quiet; read as int64 while they
// race, it may stray below zero.
type Counter struct {
	stripes [Stripes]paddedUint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.stripes[StripeIndex()].v.Add(n) }

// Load sums the stripes. Concurrent adds may or may not be included; with
// only positive adds the result never goes backwards between calls observing
// the same adds.
func (c *Counter) Load() uint64 {
	var total uint64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. Gauges are updated on slow paths
// (cycle lengths, queue depths), so a single atomic word suffices.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
