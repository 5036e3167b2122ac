package cluster

// What a serving process needs from its opened cluster besides the stores:
// the startup report, the replica bootstrap that runs before Open, the INFO
// sections and /metrics families the heaps contribute, and the clean-close
// stamp. cmd/ralloc-serve wires these to flags, listeners and signals and
// holds no logic of its own.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
)

// Report prints the startup summary to w. buckets and boundMB are the
// operator's totals (the flags), not the per-shard shares in Config. The
// single-shard lines are what scripts and the e2e harness parse; multi-shard
// opens report the merged picture plus the wall clock the parallel recovery
// actually took.
func (c *Cluster) Report(w io.Writer, buckets int, boundMB uint64) {
	n := len(c.Shards)
	sh := c.Shards[0]
	switch {
	case c.Recovered && n == 1:
		fmt.Fprintf(w, "recovered after crash: %d reachable blocks (%d KB) in %v; %d records\n",
			sh.RecStats.ReachableBlocks, sh.RecStats.ReachableBytes/1024, sh.RecStats.Duration, sh.Store.Len())
	case c.Recovered:
		fmt.Fprintf(w, "recovered %d shards in parallel after crash: %d reachable blocks (%d KB), %v total recovery work in %v wall; %d records\n",
			n, c.RecStats.ReachableBlocks, c.RecStats.ReachableBytes/1024,
			c.RecStats.Duration, c.RecoveryWall, c.Records())
	case sh.Created && n == 1:
		fmt.Fprintf(w, "created store (%d buckets, bound %d MB)\n", buckets, boundMB)
	case sh.Created:
		fmt.Fprintf(w, "created %d-shard store (%d buckets/shard, bound %d MB total)\n", n, c.buckets, boundMB)
	default:
		fmt.Fprintf(w, "reopened after clean shutdown: %d records\n", c.Records())
	}
	if sh.Heap.Region().Mapped() {
		fmt.Fprintf(w, "heap mapped from %s: acknowledged writes survive kill -9; SAVE writes the backup %s.save\n", sh.Path, sh.Path)
	}
}

// RecordStartup puts the open's cost on a latency-event timeline: the
// recovery phases (when GC recovery ran on any shard) and the attach
// duration, so `LATENCY LATEST` after a crash-restart shows what recovery
// cost next to the checkpoints.
func (c *Cluster) RecordStartup(ev *obs.Events) {
	at := time.Now()
	if c.Recovered {
		ev.Record("recovery-trace", at, c.RecStats.TraceTime)
		ev.Record("recovery-sweep", at, c.RecStats.SweepTime)
		ev.Record("recovery", at, c.RecStats.Duration)
	}
	ev.Record("attach", at, c.RecoveryWall)
}

// BootstrapReplica makes the local images of an n-shard dataset at base a
// usable starting point for following primary, before Open. The position to
// resume from is the one stamped in shard 0's header — published last by
// every download (repl.Sync), so it vouches for the other shards — and is
// used only when every shard image exists and carries the same stamp;
// otherwise (no images, a set some earlier failure left mixed, or heaps a
// kill left with no stamp at all: see StampReplMeta) the primary is asked for
// a full resync. The primary answers CONTINUE when its
// backlog still covers the position and streams fresh images on the same
// connection when it does not; the handshake refuses a primary with a
// different shard count. Dial failures retry briefly so a replica and its
// primary can be started in either order. Progress lines go to w.
func BootstrapReplica(w io.Writer, base string, n int, primary string) error {
	paths := make([]string, n)
	var id, off uint64
	for i := range paths {
		paths[i] = ShardPath(base, i)
		sid, soff, err := pmem.ReadImageMeta(paths[i])
		switch {
		case i == 0 && err == nil:
			id, off = sid, soff
		case i == 0 && !os.IsNotExist(err):
			return fmt.Errorf("reading local image header: %w", err)
		case err != nil || sid != id || soff != off:
			id, off = 0, 0
		}
	}
	var lastErr error
	for attempt, backoff := 0, 200*time.Millisecond; attempt < 10; attempt++ {
		partial, nid, noff, err := repl.Sync(primary, paths, id, off)
		if err == nil {
			switch {
			case partial:
				fmt.Fprintf(w, "resuming replication at offset %d (stream %016x)\n", noff, nid)
			case id != 0:
				fmt.Fprintf(w, "stream position no longer covered: downloaded fresh images (stream %016x, offset %d)\n", nid, noff)
			default:
				fmt.Fprintf(w, "bootstrapped %d image(s) from %s (stream %016x, offset %d)\n", n, primary, nid, noff)
			}
			// The images are slot-partitioned by the primary; record the
			// layout so a later open (or a different shard count) can't
			// silently misroute them.
			return EnsureMeta(base, n)
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return lastErr
}

// StampReplMeta records the feed position (id, off) in every region, so the
// files a following Close leaves say exactly where the stream stopped and a
// restart resumes with a partial resync from there. A killed mapped heap
// carries no position — it holds entries past any stamp, and re-applying them
// (INCR, APPEND, RPUSH) would double them — so a killed replica resyncs in
// full. id 0 — replication off — stamps nothing.
func (c *Cluster) StampReplMeta(id, off uint64) {
	if id == 0 {
		return
	}
	for _, sh := range c.Shards {
		sh.Heap.Region().SetReplMeta(id, off)
	}
}

// Sections is what the heaps contribute to the serving process's stat table
// (server.Config.InfoSections): "heap" and "allocator" as sections of their
// own, and the startup recovery facts as rows the server renders inside its
// builtin "persistence" block.
func (c *Cluster) Sections() []obs.Section {
	return []obs.Section{
		{Name: "heap", Rows: c.heapRows},
		{Name: "allocator", Rows: c.allocatorRows},
		{Name: "persistence", Rows: c.persistenceRows},
	}
}

// HeapInfo, AllocatorInfo and PersistenceInfo render one section's INFO
// lines each.
func (c *Cluster) HeapInfo() string        { return obs.Section{Rows: c.heapRows}.Lines() }
func (c *Cluster) AllocatorInfo() string   { return obs.Section{Rows: c.allocatorRows}.Lines() }
func (c *Cluster) PersistenceInfo() string { return obs.Section{Rows: c.persistenceRows}.Lines() }

func (c *Cluster) heapRows() []obs.Row {
	var used uint64
	dirty := false
	for _, sh := range c.Shards {
		used += sh.Heap.SBUsed()
		dirty = dirty || sh.Dirty
	}
	return []obs.Row{{Key: "sb_used_bytes", Val: used}, {Key: "heap_dirty_at_open", Val: dirty}}
}

// allocatorRows: the slow-path counter totals, then their breakdown. One
// heap breaks down by allocator shard ("shardN:" lines); several heaps by
// heap ("heapN:", each rolled up over its allocator shards — the full matrix
// would drown the section). Operators parse both formats, so both stay.
func (c *Cluster) allocatorRows() []obs.Row {
	line, stats := "shard", c.Shards[0].Heap.ShardStats()
	rows := []obs.Row{{Key: "shards", Val: len(stats)}}
	if len(c.Shards) > 1 {
		line, stats = "heap", make([]ralloc.ShardStats, len(c.Shards))
		for j, sh := range c.Shards {
			for _, s := range sh.Heap.ShardStats() {
				stats[j].Add(s)
			}
		}
	}
	fields := func(s ralloc.ShardStats) []obs.Row {
		out := make([]obs.Row, len(ralloc.ShardStatFields))
		for i, v := range s.Values() {
			out[i] = obs.Row{Key: ralloc.ShardStatFields[i].Key, Val: v}
		}
		return out
	}
	var total ralloc.ShardStats
	breakdown := make([]obs.Row, len(stats))
	for i, s := range stats {
		total.Add(s)
		breakdown[i] = obs.Row{Key: line, Member: strconv.Itoa(i), Sub: fields(s)}
	}
	return append(append(rows, fields(total)...), breakdown...)
}

// persistenceRows: the retained startup recovery statistics and attach
// duration.
func (c *Cluster) persistenceRows() []obs.Row {
	rows := []obs.Row{{Key: "recovered_at_start", Val: c.Recovered}, {Key: "last_attach_us", Val: c.RecoveryWall}}
	if rs := c.RecStats; c.Recovered {
		rows = append(rows,
			obs.Row{Key: "recovery_reachable_blocks", Val: rs.ReachableBlocks},
			obs.Row{Key: "recovery_reachable_bytes", Val: rs.ReachableBytes},
			obs.Row{Key: "recovery_trace_work", Val: rs.TraceWork},
			obs.Row{Key: "recovery_sweep_units", Val: rs.SweepUnits},
			obs.Row{Key: "recovery_trace_us", Val: rs.TraceTime},
			obs.Row{Key: "recovery_sweep_us", Val: rs.SweepTime},
			obs.Row{Key: "recovery_total_us", Val: rs.Duration})
	}
	return rows
}

// Collect implements obs.Collector: the allocator families summed index by
// index across the heaps. Each heap labels its series by allocator-shard
// index, so registering the heaps one by one would emit colliding series;
// summed, one heap and several emit the same families and label sets.
func (c *Cluster) Collect(e *obs.Emitter) {
	var agg []ralloc.ShardStats
	var used uint64
	for _, sh := range c.Shards {
		used += sh.Heap.SBUsed()
		for i, s := range sh.Heap.ShardStats() {
			if i == len(agg) {
				agg = append(agg, ralloc.ShardStats{})
			}
			agg[i].Add(s)
		}
	}
	ralloc.EmitShardStats(e, agg, used)
}
