// Package pmem simulates byte-addressable persistent memory (NVM) with
// x86-style cache-line write-back semantics.
//
// A Region models a DAX-mapped persistent segment. It keeps two images:
//
//   - the volatile image ("CPU caches + mapped view"): every Load/Store/CAS
//     operates on it;
//   - the shadow image ("NVM media"): only data explicitly written back with
//     Flush (clwb) — or evicted by the simulated cache — reaches it.
//
// A full-system crash (Crash) discards the volatile image and resurrects the
// region from the shadow, so any store that was not flushed (or luckily
// evicted) is lost, at 64-byte cache-line granularity. Lines are never torn.
//
// This is the substitution for the Optane DIMMs + EXT4-DAX setup used in the
// paper: what the experiments measure is how often each allocator flushes,
// fences and synchronizes, and whether recovery reconstructs exactly the
// reachable blocks — properties of the algorithms, not of the DIMM. See
// DESIGN.md ("Substitutions").
//
// Two modes are provided. ModeFast keeps only the volatile image and counts
// flushes/fences (optionally charging a configurable latency for each), for
// performance experiments. ModeCrashSim additionally maintains the shadow
// image and dirty-line tracking, for crash-injection and recovery testing.
//
// The event counters (Stats) are striped by calling goroutine and stay exact:
// threads sharing a Region do not slow each other down by being counted.
// Nothing reaches the shadow but what callers flush, so ralloc's recovery
// writes back exactly the lines it stored to, each once, and not the heap's
// used watermark or the Region's capacity. A crash copies back only the
// lines that were dirty: a clean line already equals its shadow.
package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
)

const (
	// LineBytes is the simulated cache-line size: write-back granularity.
	LineBytes = 64
	// WordBytes is the machine word size; all Load/Store/CAS offsets must
	// be WordBytes-aligned.
	WordBytes = 8
	// LineWords is the number of words per cache line.
	LineWords = LineBytes / WordBytes
)

// Mode selects how much machinery a Region carries.
type Mode int

const (
	// ModeFast tracks statistics only; crashes are not supported.
	ModeFast Mode = iota
	// ModeCrashSim maintains a shadow (persistent) image and per-line
	// dirty flags so that Crash and write-back semantics can be simulated.
	ModeCrashSim
)

func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeCrashSim:
		return "crashsim"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls a Region's simulation fidelity and cost model.
type Config struct {
	// Mode selects fast (stats-only) or crash-simulation operation.
	Mode Mode
	// FlushLatency, if non-zero, is busy-waited once per line flushed, dirty
	// or clean, in both modes: the cost of clwb to Optane media.
	FlushLatency time.Duration
	// FenceLatency, if non-zero, is busy-waited on every Fence (sfence).
	FenceLatency time.Duration
	// EvictProb is used by Crash: each dirty line survives the crash with
	// this probability, modeling spontaneous cache eviction having written
	// it back before the power failed. 0 = strict (only flushed data
	// survives); 1 = everything survives (as if write-through).
	EvictProb float64
	// Seed seeds the eviction lottery; 0 means a fixed default so crash
	// tests are reproducible.
	Seed int64
	// StoreHook, if non-nil, is invoked after every Store, CAS and Add;
	// tests panic from it to crash inside multi-step operations. WriteBytes
	// and Zero do not invoke it: under a strict crash an unflushed payload
	// write is lost, so a crash just after one leaves the same image as a
	// crash at the store before it.
	StoreHook func()
	// SnapshotHook, if non-nil, is invoked at each phase boundary of an
	// online snapshot (SaveFileOnline). Crash-injection tests use it the
	// way StoreHook is used for stores: panic with a sentinel to simulate
	// the process dying mid-copy, mid-delta, mid-fence, or mid-rename, and
	// then assert that the previous image is still the one that loads.
	SnapshotHook func(phase SnapshotPhase)
}

// Stats counts the persistence-relevant events on a Region. All counters are
// cumulative since the Region was created.
type Stats struct {
	Loads     uint64 // atomic word loads
	Stores    uint64 // atomic word stores
	CASes     uint64 // compare-and-swap attempts
	Flushes   uint64 // line flushes requested
	Fences    uint64 // store fences
	LinesBack uint64 // dirty lines actually written back (crash-sim mode)
}

// statStripe is one goroutine's share of a Region's counters: all six on a
// 128-byte stride, a line of its own and adjacent-line-prefetch safe.
type statStripe struct {
	loads, stores, cases, flushes, fences, linesBack atomic.Uint64
	_                                                [80]byte
}

// Region is a simulated persistent memory segment. The zero value is not
// usable; create Regions with NewRegion.
//
// Word accessors (Load, LoadEach, Store, CAS, Add) are atomic and safe for
// concurrent use. Byte accessors (ReadBytes, EqualBytes, WriteBytes, Zero) are
// plain memory operations — copy, bytes.Equal, clear — over the same backing:
// a caller writes payload before the word store that publishes it and reads
// it after an atomic load of that word, and must not mix the two kinds on a
// contended location (ralloc-vet's atomicword polices the split).
type Region struct {
	words  []uint64 // volatile image, word view: Load/Store/CAS/Add
	bytes  []byte   // the same memory, byte view: every bulk path
	shadow []byte   // persistent image (ModeCrashSim only)
	dirty  []uint32 // per-line dirty flags (ModeCrashSim only)
	size   uint64   // bytes
	cfg    Config

	// mapped and file are MapFile's: the whole MAP_SHARED file, bytes being
	// mapped[imageHeaderLen:], and which file that is.
	mapped []byte
	file   os.FileInfo

	// wb makes a line's write-back (clear its dirty flag, copy it to the
	// shadow) exclusive, striped by line: of two unserialised flushers of one
	// line the slower would overwrite the shadow with an older copy.
	wb *[wbStripes]sync.Mutex

	// stats is its own allocation so that it starts on a line boundary:
	// inline, stripe 0 shared a line with cfg.StoreHook, which every Store
	// reads.
	stats *[obs.Stripes]statStripe

	crashMu sync.Mutex // serializes Crash/Persist against each other
	rng     *rand.Rand

	// snap is the online-snapshot write barrier: non-nil only while a
	// SaveFileOnline pass is running. Mutators mark the lines they touch
	// *after* the word store (see snapshot.go for the ordering argument);
	// the snapshot pass re-copies marked lines until the cut-over fence.
	snap   atomic.Pointer[snapTracker]
	snapMu sync.Mutex // one online snapshot at a time

	// replID/replOff are the replication metadata pair stamped into the
	// image header by Save/SaveFileOnline and restored by LoadRegion. They
	// are volatile bookkeeping, not region data: the replication layer sets
	// them as the write feed advances, and a checkpoint image records the
	// feed position its contents correspond to.
	replID  atomic.Uint64
	replOff atomic.Uint64
}

// SetReplMeta records the replication stream ID and byte offset that the
// region's current contents correspond to. The next checkpoint image stamps
// the pair into its header (for SaveFileOnline, re-stamped under the
// cut-over fence, when the value is final for the captured state).
func (r *Region) SetReplMeta(id, off uint64) {
	r.replID.Store(id)
	r.replOff.Store(off)
}

// ReplMeta returns the replication metadata pair last set by SetReplMeta
// (or restored from the loaded image's header).
func (r *Region) ReplMeta() (id, off uint64) {
	return r.replID.Load(), r.replOff.Load()
}

// NewRegion creates a Region of the given size in bytes (rounded up to a
// whole number of cache lines). The region starts zeroed, and — in crash-sim
// mode — fully persistent (the shadow is also zero).
func NewRegion(size uint64, cfg Config) *Region {
	if size == 0 {
		panic("pmem: zero-sized region")
	}
	size = (size + LineBytes - 1) / LineBytes * LineBytes
	words := make([]uint64, size/WordBytes)
	return newRegion(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size), cfg)
}

// newRegion builds a Region over backing — whole lines, 8-byte aligned: a Go
// slice (NewRegion) or the data part of a mapped file (MapFile).
func newRegion(backing []byte, cfg Config) *Region {
	size := uint64(len(backing))
	r := &Region{
		words: unsafe.Slice((*uint64)(unsafe.Pointer(&backing[0])), size/WordBytes),
		bytes: backing,
		size:  size,
		cfg:   cfg,
		stats: new([obs.Stripes]statStripe),
	}
	if cfg.Mode == ModeCrashSim {
		r.shadow = make([]byte, size)
		r.dirty = make([]uint32, size/LineBytes)
		r.wb = new([wbStripes]sync.Mutex)
		seed := cfg.Seed
		if seed == 0 {
			seed = 0x5851F42D4C957F2D
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return r.size }

// Mode returns the region's simulation mode.
func (r *Region) Mode() Mode { return r.cfg.Mode }

// Config returns the configuration the region was created with.
func (r *Region) Config() Config { return r.cfg }

// stat returns the calling goroutine's counter stripe.
func (r *Region) stat() *statStripe { return &r.stats[obs.StripeIndex()] }

func (r *Region) checkWord(off uint64) uint64 {
	if off%WordBytes != 0 {
		panic(fmt.Sprintf("pmem: misaligned word access at offset %#x", off))
	}
	if off >= r.size {
		panic(fmt.Sprintf("pmem: out-of-range access at offset %#x (size %#x)", off, r.size))
	}
	return off / WordBytes
}

// Load atomically reads the word at byte offset off.
func (r *Region) Load(off uint64) uint64 {
	i := r.checkWord(off)
	r.stat().loads.Add(1)
	return atomic.LoadUint64(&r.words[i])
}

// LoadEach is Load of every offs[i] into vals[i], counted by one add ahead of
// the reads: no locked instruction sits between them, so their misses overlap.
func (r *Region) LoadEach(offs, vals []uint64) {
	r.stat().loads.Add(uint64(len(offs)))
	for i, off := range offs {
		vals[i] = atomic.LoadUint64(&r.words[r.checkWord(off)])
	}
}

// Store atomically writes v to the word at byte offset off and marks the
// containing cache line dirty.
func (r *Region) Store(off, v uint64) {
	i := r.checkWord(off)
	r.stat().stores.Add(1)
	atomic.StoreUint64(&r.words[i], v)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
}

// CAS atomically compares-and-swaps the word at byte offset off. The line is
// marked dirty whether or not the swap succeeds (matching real hardware,
// where the line enters the cache in modified state only on success; marking
// unconditionally is conservative for crash simulation).
func (r *Region) CAS(off, old, new uint64) bool {
	i := r.checkWord(off)
	r.stat().cases.Add(1)
	ok := atomic.CompareAndSwapUint64(&r.words[i], old, new)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
	return ok
}

// Add atomically adds delta to the word at byte offset off and returns the
// new value.
func (r *Region) Add(off, delta uint64) uint64 {
	i := r.checkWord(off)
	r.stat().cases.Add(1)
	v := atomic.AddUint64(&r.words[i], delta)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
	return v
}

func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// Flush writes back the cache line containing byte offset off (clwb). In
// fast mode this only counts (and charges FlushLatency); in crash-sim mode
// the line's words are copied to the shadow image.
func (r *Region) Flush(off uint64) {
	if off >= r.size {
		panic(fmt.Sprintf("pmem: flush out of range at %#x", off))
	}
	r.stat().flushes.Add(1)
	if r.shadow != nil {
		r.writeBackLine(off / LineBytes)
	}
	spin(r.cfg.FlushLatency)
}

// FlushRange flushes every cache line overlapping [off, off+n).
func (r *Region) FlushRange(off, n uint64) {
	if n == 0 {
		return
	}
	if off+n > r.size {
		panic(fmt.Sprintf("pmem: flush range out of bounds [%#x,%#x)", off, off+n))
	}
	first := off / LineBytes
	last := (off + n - 1) / LineBytes
	r.stat().flushes.Add(last - first + 1)
	for l := first; l <= last; l++ {
		if r.shadow != nil {
			r.writeBackLine(l)
		}
		spin(r.cfg.FlushLatency)
	}
}

// wbStripes is how many locks serialise write-backs, a line's being l%wbStripes.
const wbStripes = 64

// markDirty flags the line containing off for write-back. Like snapMark it
// runs after the store it covers: writeBackLine clears the flag before it
// reads the line, so a flag set ahead of the store could be cleared by a
// copy that misses the store, leaving a volatile-only word on a clean line.
func (r *Region) markDirty(off uint64) {
	if r.dirty != nil {
		atomic.StoreUint32(&r.dirty[off/LineBytes], 1)
	}
}

// markDirtyRange flags every line overlapping [off, off+n), after the stores.
func (r *Region) markDirtyRange(off, n uint64) {
	if r.dirty != nil && n != 0 {
		markLines(r.dirty, off, n)
	}
}

// markLines sets the flag of every line overlapping the non-empty [off, off+n).
func markLines(flags []uint32, off, n uint64) {
	for l := off / LineBytes; l <= (off+n-1)/LineBytes; l++ {
		atomic.StoreUint32(&flags[l], 1)
	}
}

// writeBackLine copies line l from the volatile image to the shadow, having
// cleared its dirty flag first (see markDirty), both under the line's stripe
// lock. A clean line returns without the lock, even while another flusher is
// mid-copy of it: that copy began after every store flagged before its
// clear, and Crash, which reads the shadow, runs with accessors stopped.
func (r *Region) writeBackLine(l uint64) {
	if atomic.LoadUint32(&r.dirty[l]) == 0 {
		return
	}
	mu := &r.wb[l%wbStripes]
	mu.Lock()
	atomic.StoreUint32(&r.dirty[l], 0)
	r.copyLines(r.shadow[l*LineBytes:], l, 1)
	mu.Unlock()
	r.stat().linesBack.Add(1)
}

// copyLines copies lines [line, line+n) of the volatile image into dst as
// image bytes (little-endian words). It is the one reader that by design
// overlaps running mutators — write-back reads its neighbours' words in the
// line, the online-SAVE copier reads everything — hence the one //go:norace
// function in the tree, and a loop of aligned word loads rather than copy
// (runtime.slicecopy reports its range to the race detector whatever the
// caller's pragma). Invariant: a word written by Store/CAS/Add is read
// whole; payload not yet published may be read torn; both callers copy a
// line again if it is flagged after they cleared its flag, and flags are set
// after the store.
//
//go:norace
func (r *Region) copyLines(dst []byte, line, n uint64) {
	for i, w := range r.words[line*LineWords : (line+n)*LineWords] {
		binary.LittleEndian.PutUint64(dst[i*WordBytes:], w)
	}
}

// Fence issues a store fence (sfence). Because simulated flushes complete
// synchronously, Fence only counts (and charges FenceLatency); it is still
// essential that callers place fences correctly, since crash-injection tests
// verify recoverability under the strictest interpretation (nothing persists
// without an explicit Flush).
func (r *Region) Fence() {
	r.stat().fences.Add(1)
	spin(r.cfg.FenceLatency)
}

// Persist flushes every dirty line, modeling the write-back that happens on
// a clean shutdown. In fast mode it is a no-op apart from statistics.
func (r *Region) Persist() {
	r.crashMu.Lock()
	defer r.crashMu.Unlock()
	if r.shadow == nil {
		return
	}
	for l := range r.dirty {
		r.writeBackLine(uint64(l))
	}
}

// ErrFastMode is returned by Crash on a ModeFast region.
var ErrFastMode = errors.New("pmem: crash simulation requires ModeCrashSim")

// Crash simulates a full-system, fail-stop crash. Each dirty line survives
// with probability EvictProb (it happened to be evicted and written back
// before the failure); all other unflushed lines are lost. The volatile
// image is then as if reloaded from the shadow after reboot: a clean line
// already equals its shadow, so only the lost lines are copied back.
// Concurrent accessors must have stopped: a real crash has no surviving
// threads either.
func (r *Region) Crash() error {
	if r.cfg.Mode != ModeCrashSim {
		return ErrFastMode
	}
	r.crashMu.Lock()
	defer r.crashMu.Unlock()
	for l := range r.dirty {
		if atomic.LoadUint32(&r.dirty[l]) == 0 {
			continue
		}
		if r.cfg.EvictProb > 0 && r.rng.Float64() < r.cfg.EvictProb {
			r.writeBackLine(uint64(l))
			continue
		}
		at := l * LineBytes
		copy(r.bytes[at:at+LineBytes], r.shadow[at:])
		atomic.StoreUint32(&r.dirty[l], 0)
	}
	return nil
}

// DirtyLines reports how many cache lines are currently dirty (crash-sim
// mode only; 0 otherwise). Useful in tests asserting that a clean shutdown
// flushed everything.
func (r *Region) DirtyLines() int {
	n := 0
	for l := range r.dirty {
		if atomic.LoadUint32(&r.dirty[l]) != 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the region's event counters: the sum of the
// stripes, exact once the accessors have stopped.
func (r *Region) Stats() Stats {
	var s Stats
	for i := range r.stats {
		st := &r.stats[i]
		s.Loads += st.loads.Load()
		s.Stores += st.stores.Load()
		s.CASes += st.cases.Load()
		s.Flushes += st.flushes.Load()
		s.Fences += st.fences.Load()
		s.LinesBack += st.linesBack.Load()
	}
	return s
}

func (r *Region) checkBytes(op string, off uint64, n int) {
	if off+uint64(n) > r.size {
		panic(fmt.Sprintf("pmem: %s out of bounds [%#x,%#x)", op, off, off+uint64(n)))
	}
}

// ReadBytes copies n = len(b) bytes starting at byte offset off into b. The
// byte accessors are plain and uncounted: they move payload the caller
// already owns (see Region).
func (r *Region) ReadBytes(off uint64, b []byte) {
	r.checkBytes("ReadBytes", off, len(b))
	copy(b, r.bytes[off:])
}

// EqualBytes reports whether the len(b) bytes starting at byte offset off
// equal b, comparing in place: the reader of a key needs no copy of it.
func (r *Region) EqualBytes(off uint64, b []byte) bool {
	r.checkBytes("EqualBytes", off, len(b))
	return bytes.Equal(r.bytes[off:off+uint64(len(b))], b)
}

// WriteBytes copies b into the region starting at byte offset off, marking
// the touched lines dirty. Callers use it only on uncontended payload memory.
func (r *Region) WriteBytes(off uint64, b []byte) {
	r.checkBytes("WriteBytes", off, len(b))
	copy(r.bytes[off:], b)
	r.markDirtyRange(off, uint64(len(b)))
	r.snapMarkRange(off, uint64(len(b)))
}

// Zero clears n bytes starting at off (both must be word-aligned), marking
// the touched lines dirty.
func (r *Region) Zero(off, n uint64) {
	if off%WordBytes != 0 || n%WordBytes != 0 {
		panic("pmem: Zero requires word alignment")
	}
	if off+n > r.size {
		panic(fmt.Sprintf("pmem: Zero out of bounds [%#x,%#x)", off, off+n))
	}
	clear(r.bytes[off : off+n])
	r.markDirtyRange(off, n)
	r.snapMarkRange(off, n)
}
