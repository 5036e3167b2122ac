package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// Online snapshots: checkpoint the region to a file while mutators keep
// running, in the style of a concurrent mark phase — how SAVE writes every
// image: the writers stop only for the final delta, never for the write.
//
// Mechanism. SaveFileOnline arms a write barrier — a per-cache-line dirty
// bitmap separate from the crash-sim write-back flags — and then
//
//  1. copy: streams every line of the volatile image to the temp file,
//     sequentially, while commands execute;
//  2. delta: re-copies the lines the barrier reported dirty since they were
//     last copied, in bounded rounds, still concurrent;
//  3. fence: inside the caller-supplied fence (the server holds its shards'
//     barrier write sides: command batches drain, new ones wait), re-copies
//     the final dirty set and disarms the barrier;
//  4. publish: fsync, rename over the previous image, fsync the directory.
//
// Ordering argument. A mutator marks a line *after* storing to it; the
// copier clears a line's mark *before* reading it. For a store S with mark M
// (S before M) and a copy with clear C before read R (C before R), losing S
// would need R before S (stale copy) and M before C (mark erased) — i.e.
// M < C < R < S, contradicting S < M. So every store is either in the copy
// or re-marked for the next round; the fence round runs with mutators
// drained, after which the file equals the volatile image at the cut-over
// point exactly.
//
// Consistency. At the fence every command batch has completed, so the
// captured state is fully applied: a completed command has flushed and
// fenced everything it acknowledged (transient scribble that a real crash
// would lose rides along). The image keeps the dirty flag as-is — still set
// during serving — so it recovers through the normal dirty → Recover path.

// snapTracker is the write barrier's state, armed for the duration of one
// online snapshot. Its flags are a demand-zero mapping (demandZero) that
// lives as long as the tracker: a mutator that loaded the tracker before the
// save disarmed it may still be marking, so the save never unmaps it itself.
type snapTracker struct {
	dirty []uint32 // per-line: set by mutators after the store, cleared by the copier before the re-read
}

// snapMark records a write-barrier hit for the line containing off. It must
// be called after the word store it covers (see the ordering argument
// above); when no snapshot is armed it costs one atomic pointer load.
func (r *Region) snapMark(off uint64) {
	if t := r.snap.Load(); t != nil {
		atomic.StoreUint32(&t.dirty[off/LineBytes], 1)
		runtime.KeepAlive(t)
	}
}

// snapMarkRange marks every line overlapping [off, off+n), after the stores.
func (r *Region) snapMarkRange(off, n uint64) {
	if t := r.snap.Load(); t != nil && n != 0 {
		markLines(t.dirty, off, n)
		runtime.KeepAlive(t)
	}
}

// SnapshotPhase names the phase boundaries of an online snapshot, for
// Config.SnapshotHook crash injection.
type SnapshotPhase int

const (
	// SnapCopy fires midway through the streaming full-image pass (the
	// temp file is genuinely partial at this point).
	SnapCopy SnapshotPhase = iota
	// SnapDelta fires after each concurrent re-copy round.
	SnapDelta
	// SnapFence fires inside the cut-over fence, before the final delta —
	// mutators are drained, the caller's exclusive lock is held.
	SnapFence
	// SnapRename fires after the temp file is synced and closed, before it
	// is renamed over the previous image.
	SnapRename
)

func (p SnapshotPhase) String() string {
	switch p {
	case SnapCopy:
		return "copy"
	case SnapDelta:
		return "delta"
	case SnapFence:
		return "fence"
	case SnapRename:
		return "rename"
	default:
		return fmt.Sprintf("SnapshotPhase(%d)", int(p))
	}
}

// SnapshotStats reports what one online snapshot copied.
type SnapshotStats struct {
	Lines         uint64 // lines streamed by the full copy pass (the whole region)
	Recopied      uint64 // lines re-copied after the barrier marked them, all rounds
	FenceRecopied uint64 // of those, lines re-copied under the cut-over fence
	Rounds        int    // concurrent delta rounds before the fence
}

const (
	// snapMaxDeltaRounds bounds the chase: past this many concurrent
	// rounds the write rate has plateaued and the fence takes the rest.
	snapMaxDeltaRounds = 8
	// snapDeltaCutoff ends the concurrent rounds early: once a round
	// re-copies this few lines, another round cannot shrink the fence's
	// work enough to matter.
	snapDeltaCutoff = 64
	// snapMaxRunLines caps one WriteAt batch of contiguous lines.
	snapMaxRunLines = 1024
)

// onlineSave is one SaveFileOnline in flight: the temp image, the armed
// write barrier and what has been copied so far.
type onlineSave struct {
	r   *Region
	f   *os.File
	t   *snapTracker
	buf []byte // one WriteAt batch: snapMaxRunLines lines
	st  SnapshotStats
	cut bool // the fence's cut ran and succeeded
}

// SaveFileOnline checkpoints the region to path while mutators keep running,
// calling fence(cut) exactly once at cut-over. fence must stop every region
// mutator (the server acquires its checkpoint barrier's write side), invoke
// cut() — the final delta copy — and release; its exclusive section is the
// only part of the checkpoint that stalls writers; a fence that returns nil
// without a successful cut fails the save. The publish is PublishFile's: a
// crash at any point leaves the previous image or the new one, never a tear.
// A mapped region's own file is refused as the target.
//
// To cut several regions at one point of its command order, a caller nests
// the calls: its fence for one region runs the next region's SaveFileOnline,
// and the innermost fence runs every cut. The images publish innermost
// first; a failure or panic unwinds through each call, removing its temp file.
//
// Concurrent callers serialize. Crash must not run while a snapshot is in
// flight (the real-world analog is the checkpointer dying with the machine:
// the previous on-disk image is what recovers).
func (r *Region) SaveFileOnline(path string, fence func(cut func() error) error) (SnapshotStats, error) {
	if fi, err := os.Stat(path); r.mapped != nil && err == nil && os.SameFile(fi, r.file) {
		// The publish renames over path: the heap would be a file with no name.
		return SnapshotStats{}, fmt.Errorf("pmem: %s is the file this region is mapped from; snapshot to another path", path)
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	lines := r.size / LineBytes
	o := &onlineSave{r: r, t: new(snapTracker), buf: make([]byte, snapMaxRunLines*LineBytes)}
	m, err := demandZero(o.t, lines*4)
	if err != nil {
		return o.st, err
	}
	o.t.dirty = lineFlags(m)
	// Arm before the first line is read so no concurrent store can slip
	// between read and barrier. The deferred cleanup covers every failure,
	// a SnapshotHook panic (crash injection) in any phase or out of fence
	// too; after a publish the temp name is already gone.
	r.snap.Store(o.t)
	tmp := path + ".tmp"
	defer func() {
		r.snap.Store(nil)
		if o.f != nil {
			o.f.Close()
		}
		os.Remove(tmp)
	}()

	f, err := os.Create(tmp)
	if err != nil {
		return o.st, err
	}
	o.f = f
	id, off := r.ReplMeta()
	if err := writeImageHeader(f, r.size, r.cfg.Mode, imageFlagOnline, id, off); err != nil {
		return o.st, err
	}
	// Phase 1 — streaming copy of every line, concurrent with mutators.
	for l := uint64(0); l < lines; l += snapMaxRunLines {
		n := min(snapMaxRunLines, lines-l)
		if half := lines / 2; r.cfg.SnapshotHook != nil && l <= half && half < l+n {
			r.cfg.SnapshotHook(SnapCopy) // the injected kill sees a genuinely partial file
		}
		if err := o.writeLines(l, n); err != nil {
			return o.st, err
		}
	}
	o.st.Lines = lines

	// Phase 2 — concurrent delta rounds: chase the write barrier until the
	// dirty set is small or stops shrinking.
	for round := 0; round < snapMaxDeltaRounds; round++ {
		n, err := o.copyDelta()
		if err != nil {
			return o.st, err
		}
		o.st.Rounds++
		o.st.Recopied += n
		if r.cfg.SnapshotHook != nil {
			r.cfg.SnapshotHook(SnapDelta)
		}
		if n <= snapDeltaCutoff {
			break
		}
	}

	// Phase 3 — the caller's fence, which runs cutOver with mutators stopped.
	if err := fence(o.cutOver); err != nil {
		return o.st, err
	}
	if !o.cut {
		return o.st, errors.New("pmem: fence returned without a successful cut")
	}

	// Phase 4 — publish: PublishFile closes the file.
	var hook func()
	if r.cfg.SnapshotHook != nil {
		hook = func() { r.cfg.SnapshotHook(SnapRename) }
	}
	o.f = nil
	return o.st, PublishFile(f, path, hook)
}

// cutOver is the cut SaveFileOnline hands its fence: the final delta copy,
// the replication-metadata re-stamp (final now that mutators are drained —
// the header written before the copy carried a pre-copy value) and the
// barrier disarm. After it the temp file is a point-in-time image.
func (o *onlineSave) cutOver() error {
	r := o.r
	if r.cfg.SnapshotHook != nil {
		r.cfg.SnapshotHook(SnapFence)
	}
	n, err := o.copyDelta()
	o.st.Recopied += n
	o.st.FenceRecopied = n
	r.snap.Store(nil)
	if err != nil {
		return err
	}
	var meta [16]byte
	id, off := r.ReplMeta()
	binary.LittleEndian.PutUint64(meta[:8], id)
	binary.LittleEndian.PutUint64(meta[8:], off)
	_, err = o.f.WriteAt(meta[:], replMetaHeaderOff)
	o.cut = err == nil
	return err
}

// writeLines copies lines [l, l+n) of the volatile image to their place in
// the image file; n is at most snapMaxRunLines.
func (o *onlineSave) writeLines(l, n uint64) error {
	b := o.buf[:n*LineBytes]
	o.r.copyLines(b, l, n)
	_, err := o.f.WriteAt(b, int64(imageHeaderLen+l*LineBytes))
	return err
}

// copyDelta re-copies every line the barrier has marked since its last copy,
// clearing each mark before the re-read (the order the correctness argument
// needs). Contiguous dirty runs are batched into one WriteAt.
func (o *onlineSave) copyDelta() (uint64, error) {
	t := o.t
	var n uint64
	for l := 0; l < len(t.dirty); {
		if atomic.LoadUint32(&t.dirty[l]) == 0 {
			l++
			continue
		}
		start := l
		for l < len(t.dirty) && l-start < snapMaxRunLines && atomic.LoadUint32(&t.dirty[l]) != 0 {
			atomic.StoreUint32(&t.dirty[l], 0)
			l++
		}
		if err := o.writeLines(uint64(start), uint64(l-start)); err != nil {
			return n, err
		}
		n += uint64(l - start)
	}
	return n, nil
}
