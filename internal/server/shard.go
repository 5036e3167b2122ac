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
	// and must call fence(cut) exactly once at cut-over; the server's fence
	// holds the checkpoint barrier write side of the shard's group only for
	// the final deltas, so commands stall for those — not the image write.
	// Nil on every shard: SAVE answers an error.
	CheckpointOnline func(fence func(cut func() error) error) (CheckpointStats, error)
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
// the image recovers like a killed heap). path names the heap's file, which
// the heap itself is (a mapped region, as ralloc-serve opens it); SAVE never
// writes it but "<path>.save": a backup against power failure, and the image
// a replica downloads. An empty path is a volatile heap: SAVE refuses.
// replicated adds the two replication hooks: the feed position is stamped
// into the image header inside every fence, and full resyncs stream the image
// file.
func RegionBackend(a alloc.Allocator, st *kvstore.Store, region *pmem.Region, path string, replicated bool) ShardBackend {
	be := ShardBackend{Alloc: a, Store: st}
	if path == "" {
		return be
	}
	path += ".save"
	be.CheckpointOnline = func(fence func(cut func() error) error) (CheckpointStats, error) {
		return region.SaveFileOnline(path, fence)
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
	// journal.go: the heap with the undo journal's root, its mutex.
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

// NewSharded creates a server over N shard backends forming one keyspace.
// len(backends) must be in [1, slot.MaxShards], and each backend's allocator
// a Ralloc heap's (ralloc.Heap.AsAllocator): its root slots hold the undo
// journal.
func NewSharded(backends []ShardBackend, cfg Config) *Server {
	if len(backends) == 0 || len(backends) > slot.MaxShards {
		panic(fmt.Sprintf("server: shard count %d outside [1, %d]", len(backends), slot.MaxShards))
	}
	s := newServer(cfg)
	for i, be := range backends {
		h, ok := be.Alloc.(interface{ Heap() *ralloc.Heap })
		if !ok {
			panic(fmt.Sprintf("server: shard %d's allocator %T is not a Ralloc heap's", i, be.Alloc))
		}
		sh := &shard{idx: i, a: be.Alloc, st: be.Store, be: be, journal: h.Heap()}
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
		if sh.be.CheckpointOnline != nil {
			return true
		}
	}
	return false
}

// Save writes every shard's image online; each holds every write
// acknowledged before its cut. Every SAVE is one nested cut over a group of
// shards (saveRun). Without replication each shard is its own group, so a
// fence stalls 1/N of the keyspace at a time; with it all shards form one
// group, so one (id, offset) stamps every image and a restarted replica can
// resume from any of them. Telemetry is stamped only on success: a failed
// SAVE counts in checkpoint_errors alone, so "time since last checkpoint"
// never reads a broken disk as a fresh checkpoint. saveMu serializes SAVEs.
func (s *Server) Save() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.save()
}

// save is Save with saveMu held.
func (s *Server) save() error {
	if !s.hasCheckpoint() {
		return errors.New("server: no checkpoint configured")
	}
	run := saveRun{s: s, t0: time.Now()}
	n := 1
	if s.repl != nil {
		n = len(s.shards)
	}
	for i := 0; i < len(s.shards); i += n {
		if err := run.cut(s.shards[i:i+n], nil); err != nil {
			s.saveErrs.Add(1)
			return err
		}
	}
	total := time.Since(run.t0)
	s.saveTotalNs.Store(int64(total))
	s.lastSaveUnix.Store(run.t0.Unix())
	s.saves.Add(1)
	s.saveLines.Add(run.agg.Lines)
	s.saveRecopied.Add(run.agg.Recopied)
	s.saveFenceRecopied.Store(run.agg.FenceRecopied)
	s.saveRounds.Store(int64(run.agg.Rounds))
	s.events.Record("checkpoint", run.t0, total)
	return nil
}

// saveRun is one SAVE in flight: its start and the published shards' stats.
type saveRun struct {
	s   *Server
	t0  time.Time
	agg CheckpointStats
}

// cut checkpoints shard g[len(cuts)] online; cuts are the cut-over steps of
// the shards before it, each waiting inside its fence. This shard's fence
// recurses to the next, and the last runs fence over the group, so every
// image in g captures one instant. They publish innermost first (g[0] last);
// a failure or panic unwinds through each shard's CheckpointOnline, which
// abandons its own image.
func (run *saveRun) cut(g []*shard, cuts []func() error) error {
	sh := g[len(cuts)]
	if sh.be.CheckpointOnline == nil {
		return fmt.Errorf("shard %d: no checkpoint configured", sh.idx)
	}
	var inner error
	st, err := sh.be.CheckpointOnline(func(cut func() error) error {
		if cuts := append(cuts, cut); len(cuts) < len(g) {
			inner = run.cut(g, cuts)
		} else {
			inner = run.fence(g, cuts)
		}
		return inner
	})
	if inner != nil {
		return inner
	}
	if err != nil {
		return fmt.Errorf("shard %d: %w", sh.idx, err)
	}
	sh.saves.Add(1)
	run.agg.Lines += st.Lines
	run.agg.Recopied += st.Recopied
	run.agg.FenceRecopied += st.FenceRecopied
	run.agg.Rounds = max(run.agg.Rounds, st.Rounds)
	return nil
}

// fence is a group's cut-over: every barrier write side in g (ascending,
// released even if a cut panics), the feed-offset stamp, every shard's final
// delta. Only the group's commands wait. Its duration is the
// "checkpoint-fence" LATENCY event and each shard's own gauge.
func (run *saveRun) fence(g []*shard, cuts []func() error) error {
	s := run.s
	locks := s.locksAll[g[0].idx:][:len(g)] // g is a run of s.shards
	shardlock.ExecLockAll(locks)
	defer shardlock.ExecUnlockAll(locks)
	s.saveQuiesceNs.Store(int64(time.Since(run.t0)))
	// Stamped inside the fence, so each image's data is exactly its stamped
	// feed position.
	for _, sh := range g {
		if s.repl != nil && sh.be.CheckpointOffset != nil {
			sh.be.CheckpointOffset(s.repl.feed.ID(), s.repl.feed.Offset())
		}
	}
	tf := time.Now()
	var err error
	for i, cut := range cuts {
		if err = cut(); err != nil {
			err = fmt.Errorf("shard %d: %w", g[i].idx, err)
			break
		}
	}
	fence := time.Since(tf)
	s.saveFenceNs.Store(int64(fence))
	for _, sh := range g {
		sh.fenceNs.Store(int64(fence))
	}
	s.events.Record("checkpoint-fence", tf, fence)
	return err
}
