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
	"strings"
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
// usable starting point for following primary, before Open: with no images
// it downloads the primary's checkpoints (one per shard; the handshake
// refuses a primary with a different shard count); with images it probes
// whether the stream position stamped in shard 0's header is still inside the
// primary's backlog — re-downloading, on the same connection, only when it
// is not. Dial failures retry briefly so a replica and its primary can be
// started in either order. Progress lines go to w.
func BootstrapReplica(w io.Writer, base string, n int, primary string) error {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = ShardPath(base, i)
	}
	var id, off uint64
	if _, err := os.Stat(base); err == nil {
		if id, off, err = pmem.ReadImageMeta(base); err != nil {
			return fmt.Errorf("reading local image header: %w", err)
		}
	}
	var lastErr error
	for attempt, backoff := 0, 200*time.Millisecond; attempt < 10; attempt++ {
		if id != 0 {
			partial, nid, noff, err := repl.ProbeSyncN(primary, paths, id, off)
			if err == nil {
				if partial {
					fmt.Fprintf(w, "resuming replication at offset %d (stream %016x)\n", noff, nid)
				} else {
					fmt.Fprintf(w, "stream position no longer covered: downloaded fresh images (stream %016x, offset %d)\n", nid, noff)
				}
				return nil
			}
			lastErr = err
		} else {
			nid, noff, err := repl.BootstrapImages(primary, paths)
			if err == nil {
				// The downloaded images are slot-partitioned by the primary;
				// record the layout so a later open (or a different shard
				// count) can't silently misroute them.
				if err := EnsureMeta(base, n); err != nil {
					return err
				}
				fmt.Fprintf(w, "bootstrapped %d image(s) from %s (stream %016x, offset %d)\n", n, primary, nid, noff)
				return nil
			}
			lastErr = err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return lastErr
}

// StampReplMeta records the feed position (id, off) in every region, so the
// images a following Close writes say exactly where the stream stopped and a
// restart resumes with a partial resync from there. id 0 — replication off —
// stamps nothing.
func (c *Cluster) StampReplMeta(id, off uint64) {
	if id == 0 {
		return
	}
	for _, sh := range c.Shards {
		sh.Heap.Region().SetReplMeta(id, off)
	}
}

// HeapInfo renders the INFO heap section.
func (c *Cluster) HeapInfo() string {
	var used uint64
	dirty := false
	for _, sh := range c.Shards {
		used += sh.Heap.SBUsed()
		dirty = dirty || sh.Dirty
	}
	return fmt.Sprintf("sb_used_bytes:%d\r\nheap_dirty_at_open:%v\r\n", used, dirty)
}

// AllocatorInfo renders the INFO allocator section: the slow-path counter
// totals, then their breakdown. One heap breaks down by allocator shard
// ("shardN:" lines); several heaps by heap ("heapN:", each rolled up over
// its allocator shards — the full matrix would drown the section). Operators
// parse both formats, so both stay.
func (c *Cluster) AllocatorInfo() string {
	prefix, rows := "shard", c.Shards[0].Heap.ShardStats()
	allocShards := len(rows)
	if len(c.Shards) > 1 {
		prefix, rows = "heap", make([]ralloc.ShardStats, len(c.Shards))
		for j, sh := range c.Shards {
			for _, s := range sh.Heap.ShardStats() {
				rows[j].Add(s)
			}
		}
	}
	var total ralloc.ShardStats
	var lines strings.Builder
	for i, r := range rows {
		total.Add(r)
		fmt.Fprintf(&lines, "%s%d:%s\r\n", prefix, i, joinStats(r, "=", ","))
	}
	return fmt.Sprintf("shards:%d\r\n%s\r\n%s", allocShards, joinStats(total, ":", "\r\n"), lines.String())
}

// joinStats renders s as key<kv>value pairs joined by sep.
func joinStats(s ralloc.ShardStats, kv, sep string) string {
	vals := s.Values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = ralloc.ShardStatFields[i].Key + kv + strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, sep)
}

// PersistenceInfo renders this process's contribution to INFO persistence:
// the retained startup recovery statistics and attach duration (the server
// splices these lines into its builtin Persistence section).
func (c *Cluster) PersistenceInfo() string {
	s := fmt.Sprintf("recovered_at_start:%v\r\nlast_attach_us:%d\r\n", c.Recovered, c.RecoveryWall.Microseconds())
	if c.Recovered {
		rs := c.RecStats
		s += fmt.Sprintf("recovery_reachable_blocks:%d\r\nrecovery_reachable_bytes:%d\r\nrecovery_trace_work:%d\r\nrecovery_sweep_units:%d\r\nrecovery_trace_us:%d\r\nrecovery_sweep_us:%d\r\nrecovery_total_us:%d\r\n",
			rs.ReachableBlocks, rs.ReachableBytes, rs.TraceWork, rs.SweepUnits,
			rs.TraceTime.Microseconds(), rs.SweepTime.Microseconds(), rs.Duration.Microseconds())
	}
	return s
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
