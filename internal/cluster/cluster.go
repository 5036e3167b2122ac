// Package cluster owns the lifecycle of a horizontally sharded keyspace: N
// independent persistent heaps (each a full ralloc.Heap + kvstore.Store with
// its own image file, recovery, and checkpoint cadence) that together form
// one logical database. The routing side — CRC16 hash slots, per-command key
// confinement — lives in internal/cluster/slot and internal/server; this
// package covers what happens before and after serving: opening every shard,
// recovering them in parallel after a crash, and closing them — the one open →
// recover, the store's attach riding the trace → close routine of a served heap —
// plus what a serving process reports about its heaps (serve.go).
//
// Why shards recover in parallel: Ralloc's recovery is a heap traversal
// (trace reachable blocks, sweep the rest), and its cost grows with one
// heap's footprint. Splitting the keyspace across N heaps divides the
// traversal N ways with no coordination — the shards share nothing — so
// post-crash restart time scales down with shard count; each shard recovers
// with one worker (heap.Recover), the shards being the parallelism. (The
// throughput side of sharding is the per-shard lock blocks in
// internal/server.)
//
// On-disk layout: shard 0 lives at the base path (a single-shard dataset is
// one plain image file, no sidecar), shard i>0 at "<base>.shard<i>", and a
// sidecar "<base>.cluster" records the shard count. The sidecar is what
// makes layout mistakes loud: reopening a 4-shard dataset with
// -cluster-shards 2 would route keys differently and silently lose 3/4 of
// the keyspace, so Open refuses any mismatch between the sidecar and the
// requested count before touching a heap.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/ralloc"
)

// Config describes how to open every shard. The sizes are per shard: a
// 4-shard cluster with SBRegionMB=64 owns 256 MB of heap total, matching a
// 1-shard cluster with SBRegionMB=256 — which is how the benchmarks hold
// total footprint constant while varying shard count.
type Config struct {
	// Shards is the keyspace shard count, in [1, slot.MaxShards].
	Shards int
	// Ralloc configures each shard's allocator (SBRegion is per shard).
	Ralloc ralloc.Config
	// Buckets is the hash-bucket count for a freshly created store.
	Buckets int
	// Bound is the per-shard eviction budget in bytes; 0 = unbounded.
	Bound uint64
}

// Shard is one opened shard: its heap, store, and what opening it cost.
type Shard struct {
	// Path is the shard's image path ("" for a volatile cluster).
	Path string
	// Heap is the shard's recovered allocator heap.
	Heap *ralloc.Heap
	// Alloc is Heap.AsAllocator(), the store's allocator.
	Alloc alloc.Allocator
	// Store is the shard's keyspace partition, attached and ready.
	Store *kvstore.Store
	// Dirty reports whether the image was marked in-use at open (the last
	// session did not close cleanly).
	Dirty bool
	// Created reports whether this open created a fresh store (no root).
	Created bool
	// Recovered reports whether GC recovery ran (Dirty).
	Recovered bool
	// RecStats holds this shard's recovery statistics when Recovered.
	RecStats ralloc.RecoveryStats
}

// Cluster is the set of opened shards plus merged recovery accounting.
type Cluster struct {
	Base   string
	Shards []*Shard

	// Recovered reports whether any shard ran GC recovery.
	Recovered bool
	// RecStats sums the per-shard recovery statistics (work and reachable
	// counts add; the durations add too, so they report total CPU work —
	// RecoveryWall is the elapsed-time number).
	RecStats ralloc.RecoveryStats
	// RecoveryWall is the wall-clock duration of the parallel open+recover
	// of all shards: what a client actually waits after kill -9.
	RecoveryWall time.Duration

	buckets int // Config.Buckets, for Report
}

// ShardPath returns shard i's image path: the base path itself for shard 0,
// "<base>.shard<i>" above. A volatile cluster (base "") has no paths.
func ShardPath(base string, i int) string {
	if base == "" || i == 0 {
		return base
	}
	return fmt.Sprintf("%s.shard%d", base, i)
}

// MetaPath returns the sidecar path recording the cluster's shard count.
func MetaPath(base string) string {
	return base + ".cluster"
}

// checkLayout enforces the sidecar contract before any heap opens:
//
//   - n == 1 and a sidecar exists: the dataset was created sharded; opening
//     only shard 0 would serve a fraction of the keyspace. Refused.
//   - n > 1 and the sidecar records a different count: keys would route
//     differently than they were written. Refused.
//   - n > 1, no sidecar, but a base image exists: a pre-cluster dataset is
//     being reopened sharded; its keys were never slot-routed. Refused —
//     unless the images were downloaded from a primary, which partitioned
//     them by slot (a replica bootstrap writes N images before any open).
//   - n > 1, no sidecar otherwise: fresh cluster — write the sidecar.
func checkLayout(base string, n int, downloaded bool) error {
	if base == "" {
		return nil // volatile: nothing on disk to mismatch
	}
	meta := MetaPath(base)
	b, err := os.ReadFile(meta)
	switch {
	case err == nil:
		recorded, perr := parseMeta(string(b))
		if perr != nil {
			return fmt.Errorf("cluster sidecar %s: %w", meta, perr)
		}
		if recorded != n {
			return fmt.Errorf("cluster sidecar %s records %d shards, -cluster-shards is %d: reopen with the count the dataset was created with", meta, recorded, n)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if n == 1 {
			return nil
		}
		if _, serr := os.Stat(base); serr == nil && !downloaded {
			return fmt.Errorf("heap image %s exists but has no cluster sidecar: it was created single-shard and its keys are not slot-partitioned; refusing to open it with -cluster-shards %d", base, n)
		}
		return writeMeta(meta, n)
	default:
		return fmt.Errorf("cluster sidecar %s: %w", meta, err)
	}
}

// EnsureMeta records the cluster layout for images that arrived sharded
// from a primary: an existing sidecar must match, a missing one is written.
func EnsureMeta(base string, n int) error { return checkLayout(base, n, true) }

func parseMeta(s string) (int, error) {
	s = strings.TrimSpace(s)
	const prefix = "shards "
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("malformed contents %q", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(s[len(prefix):]))
	if err != nil || n < 2 {
		return 0, fmt.Errorf("malformed shard count in %q", s)
	}
	return n, nil
}

// writeMeta publishes the sidecar atomically (temp + rename) so a crash
// during creation leaves either no sidecar or a complete one — never a
// truncated file that would block every future open.
func writeMeta(path string, n int) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("shards %d\n", n)), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Open opens (and, after a crash, recovers) every shard of the cluster at
// base, one goroutine per shard. Each shard runs the full single-heap
// startup sequence — ralloc.Open, root lookup, GC recovery when the image
// is dirty, store attach — independently: the heaps share no state, so the
// only serialization is the machine's parallelism. On any shard failing,
// the first error is returned.
func Open(base string, cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if err := checkLayout(base, n, false); err != nil {
		return nil, err
	}

	t0 := time.Now()
	shards := make([]*Shard, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], errs[i] = openShard(ShardPath(base, i), cfg)
		}(i)
	}
	wg.Wait()

	c := &Cluster{Base: base, Shards: shards, RecoveryWall: time.Since(t0), buckets: cfg.Buckets}
	for i, err := range errs {
		if err != nil {
			// The shards that did open are dropped unclosed (a mapped region
			// unmaps once unreachable): dirty still, the next Open recovers them.
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for _, sh := range shards {
		if sh.Recovered {
			c.Recovered = true
			c.RecStats.Add(sh.RecStats)
		}
	}
	return c, nil
}

// openShard is the single-heap startup sequence for one shard. A dirty heap
// recovers before anything allocates, with or without a store root: a kill
// between creating the store and rooting it leaves blocks only GC can find.
func openShard(path string, cfg Config) (*Shard, error) {
	heap, dirty, err := ralloc.Open(path, cfg.Ralloc)
	if err != nil {
		return nil, err
	}
	a := heap.AsAllocator()
	sh := &Shard{Path: path, Heap: heap, Alloc: a, Dirty: dirty}

	root := heap.GetRoot(kvstore.RootStore, nil)
	var at *kvstore.Attaching
	if dirty {
		if root != 0 {
			at = kvstore.BeginAttach(a, root, cfg.Bound)
			heap.GetRoot(kvstore.RootStore, at.Filter())
		}
		heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
		stats, err := heap.Recover()
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		sh.RecStats, sh.Recovered = stats, true
	}
	switch {
	case at != nil:
		sh.Store = at.Finish()
	case root == 0:
		sh.Store, root = kvstore.OpenBounded(a, heap.NewHandle(), cfg.Buckets, cfg.Bound)
		heap.SetRoot(kvstore.RootStore, root)
		sh.Created = true
	default:
		sh.Store = kvstore.AttachBounded(a, root, cfg.Bound)
	}
	return sh, nil
}

// Records sums the shard record counts (the cluster's DBSIZE at open).
func (c *Cluster) Records() int {
	total := 0
	for _, sh := range c.Shards {
		total += sh.Store.Len()
	}
	return total
}

// Close closes every shard cleanly (writing each image back with the dirty
// flag cleared), returning the first error but attempting all shards — a
// broken disk under shard 2 must not leave shards 3..N-1 marked dirty for
// no reason.
func (c *Cluster) Close() error {
	var first error
	for i, sh := range c.Shards {
		if sh == nil || sh.Heap == nil {
			continue
		}
		if err := sh.Heap.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}
