package ralloc

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Config controls a heap instance.
type Config struct {
	// SBRegion is the maximum size of the superblock region in bytes
	// (the `size` argument of the paper's init()). Default 64 MB.
	SBRegion uint64
	// GrowthChunk is the increment by which the used portion of the
	// superblock region is expanded (the paper uses 1 GB; our default is
	// 4 MB so tests and examples stay small — §4.4 notes the expansion
	// size does not significantly change performance).
	GrowthChunk uint64
	// NoFlush disables all flush and fence instructions, turning Ralloc
	// back into its transient ancestor LRMalloc (the paper's LRMalloc
	// baseline is exactly "Ralloc without flush and fence", §6.1).
	NoFlush bool
	// ReturnHalf makes an overflowing thread cache return only half of
	// its blocks to the superblocks instead of all of them. The default
	// (false) is Ralloc's published behavior; true is the Makalu-style
	// policy the paper credits for better locality on memcached (§6.3) —
	// exposed here for the ablation experiment.
	ReturnHalf bool
	// CacheCap caps each per-class thread cache; 0 means one superblock's
	// worth of blocks, LRMalloc's natural refill unit.
	CacheCap int
	// Shards is the number of independent partial-list shards per size
	// class (a power of two, at most MaxShards; other values are rounded
	// up/clamped). Handles are pinned round-robin to a home shard and
	// steal from the others on miss, so concurrent handles contend on
	// distinct list heads. 0 selects a power of two near GOMAXPROCS;
	// Shards=1 reproduces the paper's single global partial list.
	Shards int
	// UnbatchedFree disables batched remote frees: an overflowing thread
	// cache returns blocks with one anchor CAS per block (the paper's
	// published behavior, §4.2) instead of one CAS per superblock group.
	// Exposed for the contended-free ablation.
	UnbatchedFree bool
	// Pmem configures the underlying simulated persistent region.
	Pmem pmem.Config
}

func (c Config) withDefaults() Config {
	if c.SBRegion == 0 {
		c.SBRegion = 64 << 20
	}
	if c.GrowthChunk == 0 {
		c.GrowthChunk = 4 << 20
	}
	c.GrowthChunk = (c.GrowthChunk + SuperblockBytes - 1) / SuperblockBytes * SuperblockBytes
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	return c
}

// Heap is a Ralloc persistent heap. All methods except NewHandle/handle
// operations are safe for concurrent use; Malloc and Free go through
// per-goroutine Handles.
type Heap struct {
	region *pmem.Region
	cfg    Config
	lay    layout
	path   string

	shards    uint32 // partial-list shards per class (power of two)
	shardMask uint32 // shards - 1
	nextShard atomic.Uint32

	// stats are the per-shard slow-path telemetry counters (stats.go).
	// Fixed-size so no (re)allocation is needed across setShards; only
	// the first `shards` entries are written.
	stats [MaxShards]shardCounters

	mu      sync.Mutex // guards handles and filters
	handles []*Handle
	filters [NumRoots]Filter
	closed  bool
}

// ErrClosed is returned by operations on a closed heap.
var ErrClosed = errors.New("ralloc: heap is closed")

// Open creates or reopens a Ralloc heap.
//
// If path is empty the heap is volatile-backed (in-memory region only, still
// with full crash simulation if cfg.Pmem.Mode is ModeCrashSim). A ModeFast
// heap with a path is the file itself, mapped (pmem.MapFile) and formatted in
// place if new. A ModeCrashSim heap's persistent image is its shadow; the file
// only serialises it — loaded here if it exists, saved by Close.
//
// The returned dirty flag reports whether the previous session ended without
// a clean Close — the paper's init() returning true, meaning the caller must
// register its roots with GetRoot and then call Recover before allocating.
func Open(path string, cfg Config) (h *Heap, dirty bool, err error) {
	cfg = cfg.withDefaults()
	lay, err := computeLayout(cfg.SBRegion)
	if err != nil {
		return nil, false, err
	}

	var region *pmem.Region
	if path != "" && cfg.Pmem.Mode == pmem.ModeFast {
		region, err = pmem.MapFile(path, lay.total, cfg.Pmem)
	} else if _, statErr := os.Stat(path); path != "" && statErr == nil {
		// A crash-sim heap with a file: only benchmark/'s in-process rows
		// and the pmem, ralloc and cluster unit tests still open one.
		region, err = pmem.LoadFile(path, cfg.Pmem)
	}
	switch {
	case err != nil:
		return nil, false, err
	case region == nil:
		region = pmem.NewRegion(lay.total, cfg.Pmem)
	case !region.Mapped() || region.Load(offMagic) != 0:
		return attach(region, cfg, path)
	case region.Size() != lay.total:
		return nil, false, fmt.Errorf("ralloc: region size %d does not match layout %d", region.Size(), lay.total)
	}
	// A new region, or a mapped one without the heap magic, which initialize
	// stores last: a kill cut its creation short and it is formatted again.
	h = &Heap{region: region, cfg: cfg, lay: lay, path: path}
	h.setShards(uint32(cfg.Shards))
	h.initialize()
	return h, false, nil
}

func (h *Heap) setShards(n uint32) {
	h.shards = n
	h.shardMask = n - 1
}

// Attach re-attaches to an existing region (for example after a simulated
// crash followed by reconstruction of the process, or to demonstrate
// position independence by re-mapping a loaded image). It performs the same
// dirty-flag protocol as Open.
func Attach(region *pmem.Region, cfg Config) (*Heap, bool, error) {
	return attach(region, cfg.withDefaults(), "")
}

func attach(region *pmem.Region, cfg Config, path string) (*Heap, bool, error) {
	if region.Load(offMagic) != heapMagic {
		return nil, false, fmt.Errorf("ralloc: region does not contain a Ralloc heap")
	}
	version := region.Load(offVersion)
	if version != heapVersion {
		return nil, false, fmt.Errorf("ralloc: heap version %d, want %d", version, heapVersion)
	}
	sbSize := region.Load(offSBSize)
	lay, err := computeLayout(sbSize)
	if err != nil {
		return nil, false, err
	}
	if lay.total != region.Size() {
		return nil, false, fmt.Errorf("ralloc: region size %d does not match layout %d", region.Size(), lay.total)
	}
	// Recovery sizes its mark bitmap and its sweep from the used watermark,
	// and the image may have arrived over the network: check it here.
	if used := region.Load(offSBUsed); used%SuperblockBytes != 0 || used > lay.sbSize {
		return nil, false, fmt.Errorf("ralloc: corrupt used watermark %d in heap image (superblock region is %d)", used, lay.sbSize)
	}
	cfg.SBRegion = sbSize
	h := &Heap{region: region, cfg: cfg, lay: lay, path: path}
	h.setShards(uint32(cfg.Shards))
	wasDirty := region.Load(offDirty) != 0
	stored := region.Load(offShards)
	if stored < 1 || stored > MaxShards || stored&(stored-1) != 0 {
		return nil, false, fmt.Errorf("ralloc: corrupt shard count %d in heap image", stored)
	}
	// Set the dirty indicator for this session (cleared again by Close)
	// *before* touching the lists below: a crash mid-remap must trigger
	// recovery on the next attach, not leak the descriptors in flight.
	h.setDirty(1)
	// Reconcile the configured shard count with the geometry the stored
	// lists were built under. A clean image's lists are remapped in place;
	// a dirty image's lists are transient garbage that the mandatory
	// Recover rebuilds under the new count anyway.
	if uint32(stored) != h.shards {
		if !wasDirty {
			h.remapShards(uint32(stored))
		}
		region.Store(offShards, uint64(h.shards))
		h.flush(offShards)
		h.fence()
	}
	return h, wasDirty, nil
}

// initialize formats a fresh heap image.
func (h *Heap) initialize() {
	r := h.region
	r.Store(offSBSize, h.lay.sbSize)
	r.Store(offSBUsed, 0)
	r.Store(offShards, uint64(h.shards))
	h.resetLists()
	for c := 0; c <= sizeclass.NumClasses; c++ {
		r.Store(classEntryOff(c), sizeclass.ClassToSize(c))
	}
	for i := 0; i < NumRoots; i++ {
		r.Store(rootOff(i), pptr.Nil)
	}
	r.Store(offVersion, heapVersion)
	r.Store(offDirty, 1)
	r.Store(offMagic, heapMagic)
	h.flushRange(0, MetaBytes)
	h.fence()
}

func (h *Heap) setDirty(v uint64) {
	h.region.Store(offDirty, v)
	h.flush(offDirty)
	h.fence()
}

// flush writes back the line containing off unless persistence is disabled.
func (h *Heap) flush(off uint64) {
	if !h.cfg.NoFlush {
		h.region.Flush(off)
	}
}

func (h *Heap) flushRange(off, n uint64) {
	if !h.cfg.NoFlush {
		h.region.FlushRange(off, n)
	}
}

func (h *Heap) fence() {
	if !h.cfg.NoFlush {
		h.region.Fence()
	}
}

// Region exposes the heap's underlying memory.
func (h *Heap) Region() *pmem.Region { return h.region }

// Layout accessors used by data structures and tests.

// SBStart returns the byte offset where the superblock region begins.
func (h *Heap) SBStart() uint64 { return h.lay.sbStart }

// SBUsed returns the current used watermark of the superblock region.
func (h *Heap) SBUsed() uint64 { return h.region.Load(offSBUsed) }

// Name implements alloc.Allocator.
func (h *Heap) Name() string {
	if h.cfg.NoFlush {
		return "lrmalloc"
	}
	return "ralloc"
}

// ----------------------------------------------------------------------
// Persistent roots (§4.1).

// SetRoot registers off as persistent root i (off may be 0 to clear). Roots
// are stored as off-holders and flushed immediately: they are the anchors of
// post-crash tracing.
func (h *Heap) SetRoot(i int, off uint64) {
	if i < 0 || i >= NumRoots {
		panic("ralloc: root index out of range")
	}
	slot := rootOff(i)
	if off == 0 {
		h.region.Store(slot, pptr.Nil)
	} else {
		h.region.Store(slot, pptr.Pack(slot, off))
	}
	h.flush(slot)
	h.fence()
}

// GetRoot returns the block registered as root i (0 if unset) and associates
// filter f with the root for use by the next Recover. Passing a nil filter
// selects conservative tracing for the structure. Mirroring the paper's
// getRoot<T>(), the filter association is transient and must be re-established
// (by calling GetRoot) after every restart, before Recover.
func (h *Heap) GetRoot(i int, f Filter) uint64 {
	if i < 0 || i >= NumRoots {
		panic("ralloc: root index out of range")
	}
	h.mu.Lock()
	h.filters[i] = f
	h.mu.Unlock()
	slot := rootOff(i)
	v := h.region.Load(slot)
	off, ok := pptr.Unpack(slot, v)
	if !ok {
		return 0
	}
	return off
}

// LeafFilter is the Filter of a block that holds no pointers.
func LeafFilter(*GC, uint64) {}

// SetRootBytes makes a copy of b root i: one block — a length word, then the
// bytes — persisted before the root points at it (register LeafFilter for the
// slot before Recover). SetRoot(i, 0) and hd.Free(block) take it back. False
// reports an exhausted heap, with nothing published.
func (h *Heap) SetRootBytes(hd alloc.Handle, i int, b []byte) (block uint64, ok bool) {
	n := uint64(len(b))
	if block = hd.Malloc(pmem.WordBytes + n); block == 0 {
		return 0, false
	}
	r, slot := h.region, rootOff(i)
	r.Store(block, n)
	r.WriteBytes(block+pmem.WordBytes, b)
	r.FlushRange(block, pmem.WordBytes+n)
	r.Fence()
	//pmem:publish
	r.Store(slot, pptr.Pack(slot, block))
	r.Flush(slot)
	r.Fence()
	return block, true
}

// RootBytes returns the block SetRootBytes made root i and a copy of its
// bytes; (0, nil) when the root is unset or is no such block.
func (h *Heap) RootBytes(i int) (block uint64, b []byte) {
	block, size := h.GetRoot(i, LeafFilter), h.region.Size()
	if block < h.lay.sbStart || block%pmem.WordBytes != 0 || block+pmem.WordBytes > size ||
		h.region.Load(block) > size-block-pmem.WordBytes {
		return 0, nil
	}
	b = make([]byte, h.region.Load(block))
	h.region.ReadBytes(block+pmem.WordBytes, b)
	return block, b
}

// ----------------------------------------------------------------------
// Growth of the used superblock region (§4.3).

// grow expands the used watermark by at least want bytes (rounded up to the
// growth chunk when possible) and returns the index of the first new
// superblock and the number of superblocks obtained. ok=false means the heap
// is exhausted.
func (h *Heap) grow(want uint64) (first uint32, count uint32, ok bool) {
	r := h.region
	for {
		used := r.Load(offSBUsed)
		remaining := h.lay.sbSize - used
		if remaining < want {
			return 0, 0, false
		}
		take := h.cfg.GrowthChunk
		if take < want {
			take = want
		}
		if take > remaining {
			take = remaining
			if take < want {
				return 0, 0, false
			}
		}
		if r.CAS(offSBUsed, used, used+take) {
			// Persist the watermark before any block in the new
			// space can be handed out (§4.3: "with an explicit
			// flush and fence").
			h.flush(offSBUsed)
			h.fence()
			return uint32(used / SuperblockBytes), uint32(take / SuperblockBytes), true
		}
	}
}

// usedDescs returns the number of descriptors whose superblocks are within
// the used watermark.
func (h *Heap) usedDescs() uint32 {
	return uint32(h.region.Load(offSBUsed) / SuperblockBytes)
}

// ----------------------------------------------------------------------
// Handles and shutdown.

// NewHandle returns a fresh per-goroutine allocation context, pinned
// round-robin to a home partial-list shard.
func (h *Heap) NewHandle() *Handle {
	hd := &Handle{heap: h, shard: (h.nextShard.Add(1) - 1) & h.shardMask}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		panic(ErrClosed)
	}
	h.handles = append(h.handles, hd)
	h.mu.Unlock()
	return hd
}

// dropHandles invalidates all handles (crash recovery discards caches: the
// blocks they held are reclaimed by GC, exactly as the paper's transient
// thread caches are lost in a crash).
func (h *Heap) dropHandles() {
	h.mu.Lock()
	for _, hd := range h.handles {
		hd.invalid = true
	}
	h.handles = nil
	h.mu.Unlock()
}

// syncRegion is a variable so that a test can make a mapped heap's Close fail.
var syncRegion = (*pmem.Region).Sync

// Close cleanly shuts the allocator down (the paper's close()): all blocks
// held in thread caches are returned to their superblocks, the heap is
// written back to NVM, the dirty indicator is cleared, and — if the heap is
// file-backed — a mapped heap syncs its dirty pages (pmem.Region.Sync) and a
// crash-sim heap saves its image.
//
// If that fails, the dirty indicator is restored before the error is
// returned: the file may not hold this shutdown, so the session must not be
// recorded as a clean close. The heap stays closed.
func (h *Heap) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	h.closed = true
	handles := h.handles
	h.handles = nil
	h.mu.Unlock()

	for _, hd := range handles {
		hd.returnAll()
		hd.invalid = true
	}
	// Write back the whole heap for fast clean restart.
	h.region.Persist()
	h.setDirty(0)
	h.region.Persist()
	var err error
	switch {
	case h.region.Mapped():
		err = syncRegion(h.region)
	case h.path != "": // a crash-sim heap with a file: benchmark/ and unit tests only
		err = h.region.SaveFile(h.path)
	}
	if err != nil {
		h.setDirty(1)
		return fmt.Errorf("ralloc: close: saving heap image: %w", err)
	}
	return nil
}
