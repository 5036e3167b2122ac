package server

// The cluster layer inside the server: one keyspace served from N
// independent shards, each a full allocator + kvstore + checkpoint cadence +
// expiry cycle behind its own lock block. Keys route by Redis-cluster hash
// slot (CRC16 → 16384 slots → contiguous shard ranges, internal/cluster/slot)
// in the dispatch pipeline via each command's KeySpec; multi-key commands
// and MULTI/EXEC stay atomic within one shard and reply -CROSSSLOT across
// shards; FLUSHALL/DBSIZE/SCAN/INFO fan out and merge. With one shard
// routing is a single branch and SAVE is a single-region checkpoint.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster/shardlock"
	"repro/internal/cluster/slot"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// ShardBackend is one shard's storage surface: the open store plus the
// checkpoint entry points for that shard's region. RegionBackend builds the
// real one; tests substitute fakes for the hooks.
type ShardBackend struct {
	// Alloc is the allocator the Store was opened on; the server draws this
	// shard's per-connection handles from it.
	Alloc alloc.Allocator
	// Store is the shard's keyspace partition.
	Store *kvstore.Store
	// CheckpointOnline implements SAVE as an online snapshot of this shard.
	// The function runs its copy phases concurrently with command execution
	// and must call fence(cut) exactly once at cut-over; the server
	// implements fence by holding the shard's checkpoint barrier write side
	// only for the final delta (cut), so commands stall for the delta — not
	// the whole image write. Nil on every shard: SAVE answers an error.
	CheckpointOnline func(fence func(cut func() error) error) (CheckpointStats, error)
	// CheckpointSteps exposes the online snapshot's phase boundaries —
	// begin (runs inside this call, concurrent with commands), then the
	// returned cut/publish/abort steps — so a multi-shard SAVE with
	// replication enabled can cut every shard under ONE fence and stamp a
	// single (id, offset) into all images. abort must be idempotent.
	CheckpointSteps func() (cut func() error, publish func() (CheckpointStats, error), abort func(), err error)
	// OpenCheckpoint opens this shard's current checkpoint image for
	// streaming to a full-resyncing replica, after the server has run Save.
	// Required for serving full resyncs (and, when set, turns replication
	// on); partial resyncs work without it.
	OpenCheckpoint func() (*CheckpointImage, error)
	// CheckpointOffset, if non-nil, is called under the checkpoint barrier's
	// write side immediately before every image cut, with the replication
	// stream ID and offset the image corresponds to.
	CheckpointOffset func(id, off uint64)
}

// CheckpointStats reports what an online checkpoint copied.
type CheckpointStats = pmem.SnapshotStats

// RegionBackend is the one way from an open heap to a serving backend: SAVE
// on the returned backend snapshots region online, so each shard's checkpoint
// touches only its own file. The image captures the volatile words at the
// cut-over fence — with the shard's commands drained, exactly the state every
// acknowledged write reached (the heap's dirty flag rides along still set, so
// the image recovers like a killed heap). A slice-backed region snapshots to
// path, the image its next start loads; a mapped region is path, and
// snapshots to "<path>.save": a backup against power failure, and the image a
// replica downloads. An empty path is a volatile heap: SAVE refuses. replicated
// adds the two replication hooks: the feed position is stamped into the image
// header inside every fence, and full resyncs stream the image file.
func RegionBackend(a alloc.Allocator, st *kvstore.Store, region *pmem.Region, path string, replicated bool) ShardBackend {
	be := ShardBackend{Alloc: a, Store: st}
	if path == "" {
		return be
	}
	if region.Mapped() {
		path += ".save"
	}
	be.CheckpointOnline = func(fence func(cut func() error) error) (CheckpointStats, error) {
		return region.SaveFileOnline(path, fence)
	}
	be.CheckpointSteps = func() (func() error, func() (CheckpointStats, error), func(), error) {
		save, err := region.BeginOnlineSave(path)
		if err != nil {
			return nil, nil, nil, err
		}
		return save.Cut, save.Publish, save.Abort, nil
	}
	if replicated {
		be.CheckpointOffset = region.SetReplMeta
		be.OpenCheckpoint = func() (*CheckpointImage, error) { return openCheckpoint(path) }
	}
	return be
}

// openCheckpoint opens the image at path for streaming to a replica, reading
// the stamped stream position from the opened descriptor itself — not a
// separate path read, which could race a concurrent checkpoint's rename and
// return a different image's header.
func openCheckpoint(path string) (img *CheckpointImage, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	hdr := make([]byte, pmem.ImageMetaLen)
	if _, err = io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint image %s: %w", path, err)
	}
	id, off, err := pmem.ParseImageMeta(hdr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint image %s: %w", path, err)
	}
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &CheckpointImage{R: f, ReplID: id, ReplOffset: off}, nil
}

// shard is one shard's runtime state: its backend, its lock block (the
// checkpoint barrier + stripe locks — the per-shard generalization of the
// old server-wide execMu/rmwMu pair), and per-shard telemetry.
type shard struct {
	idx   int
	a     alloc.Allocator
	st    *kvstore.Store
	be    ShardBackend
	locks shardlock.Locks
	// journal.go: the heap with the undo journal's root (nil: none), its mutex.
	journal   *ralloc.Heap
	journalMu sync.Mutex

	// Per-shard checkpoint and feed telemetry, surfaced by the INFO cluster
	// section and the ralloc_shard_* metric families.
	saves   atomic.Uint64
	fenceNs atomic.Int64
	// replWrites counts feed entries attributed to this shard. The feed's
	// wire format is unchanged (byte-compatible with single-shard peers);
	// the shard id of an entry is *derived* — both ends route the entry's
	// key through the same slot mapping — so tagging costs no bytes and
	// cannot disagree between primary and replica.
	replWrites atomic.Uint64
}

// mergeStats accumulates another shard's checkpoint stats into c (multi-shard
// SAVE totals for the server-level counters).
func mergeStats(c *CheckpointStats, o CheckpointStats) {
	c.Lines += o.Lines
	c.Recopied += o.Recopied
	c.FenceRecopied += o.FenceRecopied
	if o.Rounds > c.Rounds {
		c.Rounds = o.Rounds
	}
}

// NewSharded creates a server over N shard backends forming one keyspace.
// len(backends) must be in [1, slot.MaxShards].
func NewSharded(backends []ShardBackend, cfg Config) *Server {
	if len(backends) == 0 || len(backends) > slot.MaxShards {
		panic(fmt.Sprintf("server: shard count %d outside [1, %d]", len(backends), slot.MaxShards))
	}
	s := newServer(cfg)
	for i, be := range backends {
		sh := &shard{idx: i, a: be.Alloc, st: be.Store, be: be, journal: journalHeap(be.Alloc)}
		s.shards = append(s.shards, sh)
		s.locksAll = append(s.locksAll, &sh.locks)
		s.replayJournal(sh)
	}
	s.finishInit()
	return s
}

// shardOf maps a key to its shard. The single-shard fast path is one branch,
// no CRC.
func (s *Server) shardOf(key []byte) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[slot.ShardOf(key, len(s.shards))]
}

// setShard parks the routed shard (and its per-connection allocation
// handle) in the Ctx for the handler. Test harnesses that drive dispatch
// with a hand-built Ctx carry a single handle and no vector; they only ever
// run one shard, so ctx.hd is already right.
func (ctx *Ctx) setShard(sh *shard) {
	ctx.sh = sh
	if ctx.hds != nil {
		ctx.hd = ctx.hds[sh.idx]
	}
}

// handleFor returns the connection's allocation handle for shard i (fan-out
// commands like FLUSHALL allocate on every shard).
func (ctx *Ctx) handleFor(i int) alloc.Handle {
	if ctx.hds != nil {
		return ctx.hds[i]
	}
	return ctx.hd
}

// routeKeys maps a command's declared keys to their shard. With one shard
// the answer is constant. Otherwise every key must land on the same shard —
// the Redis cluster contract — or the command is refused with -CROSSSLOT
// (hash tags, "user:{42}:a"/"user:{42}:b", are the client's tool for
// co-locating related keys). On refusal the error is already written.
func (s *Server) routeKeys(ctx *Ctx, c *Command, args [][]byte) (*shard, bool) {
	if len(s.shards) == 1 {
		return s.shards[0], true
	}
	if c.Keys.First == 1 && c.Keys.Last == 1 {
		return s.shardOf(args[1]), true
	}
	ctx.keybuf = c.Keys.keys(ctx.keybuf[:0], args)
	if len(ctx.keybuf) == 0 {
		return s.shards[0], true
	}
	sh := s.shardOf(ctx.keybuf[0])
	for _, k := range ctx.keybuf[1:] {
		if s.shardOf(k) != sh {
			ctx.w.errorKind("CROSSSLOT", "Keys in request don't hash to the same slot")
			return nil, false
		}
	}
	return sh, true
}

// hasCheckpoint reports whether any shard can serve SAVE.
func (s *Server) hasCheckpoint() bool {
	for _, sh := range s.shards {
		if sh.be.CheckpointOnline != nil || sh.be.CheckpointSteps != nil {
			return true
		}
	}
	return false
}

// Save runs the configured checkpoint(s) and produces consistent persistent
// images in which every acknowledged write is present. One shard: an online
// cut under the shard's fence. Several shards without replication: each
// shard checkpoints independently, so a fence only ever stalls 1/N of the
// keyspace. Several shards with replication: all shards cut under one
// cluster-wide fence so a single (id, offset) stamps every image — without
// it the per-shard offsets would diverge and a replica restart could only
// ever full-resync. Telemetry is stamped only on success — a failed SAVE
// must not advance last_checkpoint_unix or the completion counter, or an
// operator watching "time since last checkpoint" would read a broken disk
// as a fresh checkpoint. Failures count in checkpoint_errors alone.
func (s *Server) Save() error {
	if !s.hasCheckpoint() {
		return errors.New("server: no checkpoint configured")
	}
	t0 := time.Now()
	var agg CheckpointStats
	var err error
	if len(s.shards) > 1 && s.repl != nil {
		agg, err = s.saveGlobalCut(t0)
	} else {
		agg, err = s.saveIndependent(t0)
	}
	if err != nil {
		s.saveErrs.Add(1)
		return err
	}
	total := time.Since(t0)
	s.saveTotalNs.Store(int64(total))
	s.lastSaveUnix.Store(t0.Unix())
	s.saves.Add(1)
	s.saveLines.Add(agg.Lines)
	s.saveRecopied.Add(agg.Recopied)
	s.saveFenceRecopied.Store(agg.FenceRecopied)
	s.saveRounds.Store(int64(agg.Rounds))
	s.events.Record("checkpoint", t0, total)
	return nil
}

// saveIndependent checkpoints each shard on its own fence, sequentially.
// The independence is the point: every other shard keeps serving writes at
// full speed while one shard's fence runs, so the cluster-wide stall budget
// of a SAVE is one shard's fence at a time — 1/N of the old single-heap
// stop surface.
func (s *Server) saveIndependent(t0 time.Time) (CheckpointStats, error) {
	var agg CheckpointStats
	for _, sh := range s.shards {
		st, err := s.saveShard(sh, t0)
		if err != nil {
			return agg, fmt.Errorf("shard %d: %w", sh.idx, err)
		}
		sh.saves.Add(1)
		mergeStats(&agg, st)
	}
	return agg, nil
}

// saveShard checkpoints one shard online, under that shard's own fence.
func (s *Server) saveShard(sh *shard, t0 time.Time) (CheckpointStats, error) {
	if sh.be.CheckpointOnline == nil {
		return CheckpointStats{}, errors.New("no checkpoint configured")
	}
	return sh.be.CheckpointOnline(func(cut func() error) error {
		return s.shardFence(sh, t0, cut)
	})
}

// shardFence is one shard's online cut-over: the write side of that shard's
// command barrier, the replication-offset stamp, the final delta (cut), and
// release. Commands on this shard are excluded only for this window; other
// shards never notice. The fence duration is recorded as the
// "checkpoint-fence" LATENCY event and in the shard's own gauge.
func (s *Server) shardFence(sh *shard, t0 time.Time, cut func() error) error {
	sh.locks.Exec.Lock()
	defer sh.locks.Exec.Unlock()
	s.saveQuiesceNs.Store(int64(time.Since(t0)))
	// The replication offset is stamped inside the fence: no write can land
	// on this shard between the stamp and the cut, so the image's data
	// corresponds exactly to the stamped feed position.
	s.stampShardOffset(sh)
	tf := time.Now()
	err := cut()
	fence := time.Since(tf)
	s.saveFenceNs.Store(int64(fence))
	sh.fenceNs.Store(int64(fence))
	s.events.Record("checkpoint-fence", tf, fence)
	return err
}

// stampShardOffset pins the feed position into the shard's region before an
// image cut. Runs under the barrier's write side (shardFence or the global
// fence), so the stamped offset is exactly the feed position the image's
// data corresponds to.
func (s *Server) stampShardOffset(sh *shard) {
	if s.repl != nil && sh.be.CheckpointOffset != nil {
		sh.be.CheckpointOffset(s.repl.feed.ID(), s.repl.feed.Offset())
	}
}

// onlineSaveSteps holds one shard's armed snapshot between the global
// begin and its cut/publish.
type onlineSaveSteps struct {
	cut     func() error
	publish func() (CheckpointStats, error)
	abort   func()
}

// saveGlobalCut is the multi-shard SAVE with replication enabled: begin
// every shard's online snapshot (full-image copy + delta rounds, all
// concurrent with traffic), then take every shard's barrier write side in
// ascending order — the only cluster-wide fence in the system — stamp ONE
// (id, offset) pair into every region while the feed is frozen, cut every
// shard, release, and publish. The N images therefore represent a single
// point in the global command order, which is what lets a restarted replica
// partial-resync from any of them with one offset.
func (s *Server) saveGlobalCut(t0 time.Time) (CheckpointStats, error) {
	var agg CheckpointStats
	all := make([]onlineSaveSteps, 0, len(s.shards))
	abortFrom := func(i int) {
		for _, st := range all[i:] {
			st.abort()
		}
	}
	for _, sh := range s.shards {
		if sh.be.CheckpointSteps == nil {
			abortFrom(0)
			return agg, fmt.Errorf("shard %d: online checkpoint steps not configured", sh.idx)
		}
		cut, publish, abort, err := sh.be.CheckpointSteps()
		if err != nil {
			abortFrom(0)
			return agg, fmt.Errorf("shard %d: %w", sh.idx, err)
		}
		all = append(all, onlineSaveSteps{cut: cut, publish: publish, abort: abort})
	}

	shardlock.ExecLockAll(s.locksAll)
	s.saveQuiesceNs.Store(int64(time.Since(t0)))
	for _, sh := range s.shards {
		s.stampShardOffset(sh)
	}
	tf := time.Now()
	var cutErr error
	for _, st := range all {
		if cutErr = st.cut(); cutErr != nil {
			break
		}
	}
	fence := time.Since(tf)
	shardlock.ExecUnlockAll(s.locksAll)
	s.saveFenceNs.Store(int64(fence))
	for _, sh := range s.shards {
		sh.fenceNs.Store(int64(fence))
	}
	s.events.Record("checkpoint-fence", tf, fence)
	if cutErr != nil {
		abortFrom(0) // abort is idempotent; already-cut shards just discard their temp image
		return agg, cutErr
	}

	for i, st := range all {
		cst, err := st.publish()
		if err != nil {
			abortFrom(i + 1)
			return agg, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i].saves.Add(1)
		mergeStats(&agg, cst)
	}
	return agg, nil
}
