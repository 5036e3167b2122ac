package pmem

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
)

// Online snapshots: checkpoint the region to a file while mutators keep
// running, in the style of a concurrent mark phase. The quiesced path
// (Persist + SaveFile) stops every writer for the full image write; here the
// writers only stop for the final delta.
//
// Mechanism. SaveFileOnline arms a write barrier — a per-cache-line dirty
// bitmap separate from the crash-sim write-back flags — and then
//
//  1. copy: streams every line of the volatile image to the temp file,
//     sequentially, while commands execute;
//  2. delta: re-copies the lines the barrier reported dirty since they were
//     last copied, in bounded rounds, still concurrent;
//  3. fence: inside the caller-supplied fence (the server takes its execMu
//     write side: in-flight command batches drain, new ones wait), re-copies
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
// captured state is the same fully-applied image the quiesced path's
// Persist-then-SaveFile would have written (a completed command has flushed
// and fenced everything it acknowledged; transient scribble that a real
// crash would lose rides along in both paths). The image is written with the
// dirty flag as-is — still set during serving — so a later kill -9 recovers
// from this checkpoint through the normal dirty → Recover path.

// snapTracker is the write barrier's state, armed for the duration of one
// online snapshot.
type snapTracker struct {
	dirty []uint32 // per-line: set by mutators after the store, cleared by the copier before the re-read
}

// snapMark records a write-barrier hit for the line containing off. It must
// be called after the word store it covers (see the ordering argument
// above); when no snapshot is armed it costs one atomic pointer load.
func (r *Region) snapMark(off uint64) {
	if t := r.snap.Load(); t != nil {
		atomic.StoreUint32(&t.dirty[off/LineBytes], 1)
	}
}

// snapMarkRange marks every line overlapping [off, off+n), after the stores.
func (r *Region) snapMarkRange(off, n uint64) {
	if t := r.snap.Load(); t != nil && n != 0 {
		markLines(t.dirty, off, n)
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

// OnlineSave is an online snapshot split into its phase boundaries, so a
// caller coordinating several regions (the cluster layer) can run every
// region's concurrent copy phase first, then cut them all under one shared
// fence — producing N images that represent a single point in the global
// command order — and only then publish. The lifecycle is
// BeginOnlineSave → Cut (with mutators stopped) → Publish, with Abort valid
// instead of either of the last two. SaveFileOnline composes the three for
// the single-region case.
type OnlineSave struct {
	r         *Region
	f         *os.File
	t         *snapTracker
	buf       []byte // one WriteAt batch: snapMaxRunLines lines
	tmp, path string
	st        SnapshotStats
	cut       bool
	released  bool // snapshot slot given back (Publish ran or Abort ran)
}

// BeginOnlineSave starts an online snapshot of the region: arms the write
// barrier, streams the full image to a temp file and chases the dirty set
// in bounded concurrent rounds — everything that runs while mutators keep
// executing. The caller must finish with Cut+Publish or Abort; the region's
// snapshot slot stays held (concurrent snapshots serialize) until then. A
// mapped region's own file is refused as the target.
func (r *Region) BeginOnlineSave(path string) (save *OnlineSave, err error) {
	if fi, serr := os.Stat(path); r.mapped != nil && serr == nil && os.SameFile(fi, r.file) {
		// Publish renames over path: the heap would be a file with no name.
		return nil, fmt.Errorf("pmem: %s is the file this region is mapped from; snapshot to another path", path)
	}
	r.snapMu.Lock()
	o := &OnlineSave{r: r, path: path, tmp: path + ".tmp", buf: make([]byte, snapMaxRunLines*LineBytes)}
	lines := r.size / LineBytes
	o.t = &snapTracker{dirty: make([]uint32, lines)}
	// Arm before the first line is read so no concurrent store can slip
	// between read and barrier. The deferred Abort covers every failure —
	// including a SnapshotHook panic (crash injection) — and is a no-op
	// once the OnlineSave has been handed to the caller.
	r.snap.Store(o.t)
	defer func() {
		if save == nil {
			o.Abort()
		}
	}()

	f, err := os.Create(o.tmp)
	if err != nil {
		return nil, err
	}
	o.f = f

	id, off := r.ReplMeta()
	if err := writeImageHeader(f, r.size, r.cfg.Mode, imageFlagOnline, id, off); err != nil {
		return nil, err
	}
	// Phase 1 — streaming copy of every line, concurrent with mutators.
	for l := uint64(0); l < lines; l += snapMaxRunLines {
		n := min(snapMaxRunLines, lines-l)
		if half := lines / 2; r.cfg.SnapshotHook != nil && l <= half && half < l+n {
			r.cfg.SnapshotHook(SnapCopy) // the injected kill sees a genuinely partial file
		}
		if err := o.writeLines(l, n); err != nil {
			return nil, err
		}
	}
	o.st.Lines = lines

	// Phase 2 — concurrent delta rounds: chase the write barrier until the
	// dirty set is small or stops shrinking.
	for round := 0; round < snapMaxDeltaRounds; round++ {
		n, err := o.copyDelta()
		if err != nil {
			return nil, err
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
	return o, nil
}

// Cut finishes the snapshot's capture: the final delta copy, the
// replication-metadata re-stamp (final now that mutators are drained — the
// header written during Begin carried a pre-copy value) and the barrier
// disarm. The caller must have stopped every region mutator before calling
// and may release them as soon as Cut returns; after it the temp file is a
// point-in-time image, pending Publish.
func (o *OnlineSave) Cut() error {
	r := o.r
	if r.cfg.SnapshotHook != nil {
		r.cfg.SnapshotHook(SnapFence)
	}
	n, err := o.copyDelta()
	o.st.Recopied += n
	o.st.FenceRecopied = n
	if err == nil {
		var meta [16]byte
		id, off := r.ReplMeta()
		binary.LittleEndian.PutUint64(meta[:8], id)
		binary.LittleEndian.PutUint64(meta[8:], off)
		_, err = o.f.WriteAt(meta[:], replMetaHeaderOff)
	}
	r.snap.Store(nil)
	o.cut = true
	return err
}

// Publish makes the cut image durable and atomic (PublishFile) and releases
// the region's snapshot slot.
func (o *OnlineSave) Publish() (SnapshotStats, error) {
	r := o.r
	f := o.f
	o.f = nil
	o.released = true
	defer r.snapMu.Unlock()
	if !o.cut {
		f.Close()
		os.Remove(o.tmp)
		return o.st, fmt.Errorf("pmem: Publish before Cut")
	}
	var hook func()
	if r.cfg.SnapshotHook != nil {
		hook = func() { r.cfg.SnapshotHook(SnapRename) }
	}
	return o.st, PublishFile(f, o.path, hook)
}

// Abort abandons the snapshot: disarms the barrier, removes the temp file
// and releases the region's snapshot slot. Safe after any failed phase,
// including a failed Cut.
// Abort is idempotent and a no-op after Publish, so callers may defer it
// as a catch-all next to explicit success paths.
func (o *OnlineSave) Abort() {
	if o.released {
		return
	}
	o.released = true
	o.r.snap.Store(nil)
	if o.f != nil {
		o.f.Close()
		o.f = nil
	}
	os.Remove(o.tmp)
	o.r.snapMu.Unlock()
}

// SaveFileOnline checkpoints the region to path while mutators keep running,
// calling fence(cut) exactly once at cut-over. fence must stop every region
// mutator (the server acquires its checkpoint barrier's write side), invoke
// cut() — the final delta copy — and release; its exclusive section is the
// only part of the checkpoint that stalls writers. Like SaveFile, the
// publish is atomic: temp file, fsync, rename, directory sync — a crash at
// any point leaves either the previous image or the new one, never a tear.
//
// Concurrent callers serialize; Crash must not run while a snapshot is in
// flight (a crash discards the volatile image mid-copy — the real-world
// analog is the checkpointing process dying with the machine, and the
// previous on-disk image is what recovers).
func (r *Region) SaveFileOnline(path string, fence func(cut func() error) error) (SnapshotStats, error) {
	o, err := r.BeginOnlineSave(path)
	if err != nil {
		return SnapshotStats{}, err
	}
	// Deferred so a panic out of the fence (crash injection via
	// SnapshotHook) still disarms the barrier and releases the slot.
	defer o.Abort()
	if err := fence(o.Cut); err != nil {
		return o.st, err
	}
	return o.Publish()
}

// writeLines copies lines [l, l+n) of the volatile image to their place in
// the image file; n is at most snapMaxRunLines.
func (o *OnlineSave) writeLines(l, n uint64) error {
	b := o.buf[:n*LineBytes]
	o.r.copyLines(b, l, n)
	_, err := o.f.WriteAt(b, int64(imageHeaderLen+l*LineBytes))
	return err
}

// copyDelta re-copies every line the barrier has marked since its last copy,
// clearing each mark before the re-read (the order the correctness argument
// needs). Contiguous dirty runs are batched into one WriteAt.
func (o *OnlineSave) copyDelta() (uint64, error) {
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
