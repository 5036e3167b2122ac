package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ralloc"
)

func testConfig(n int) Config {
	return Config{
		Shards: n,
		Ralloc: ralloc.Config{
			SBRegion: 16 << 20,
			Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
		},
		Buckets: 256,
	}
}

// fill writes per-shard records directly into each store.
func fill(t *testing.T, c *Cluster, perShard int) {
	t.Helper()
	for i, sh := range c.Shards {
		hd := sh.Alloc.NewHandle()
		for j := 0; j < perShard; j++ {
			k := []byte(fmt.Sprintf("s%d-key-%04d", i, j))
			if !sh.Store.SetBytes(hd, k, []byte("v")) {
				t.Fatalf("shard %d: SetBytes failed at %d", i, j)
			}
		}
	}
}

// TestClusterOpenCloseRoundTrip: a 4-shard cluster created fresh persists
// its records across a clean close/reopen, with the sidecar recording the
// layout and shard paths laid out as documented.
func TestClusterOpenCloseRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "kv.heap")
	c, err := Open(base, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 4 || !c.Shards[0].Created {
		t.Fatalf("fresh open: %d shards, created=%v", len(c.Shards), c.Shards[0].Created)
	}
	if got := ShardPath(base, 0); got != base {
		t.Fatalf("shard 0 path = %q, want base", got)
	}
	if got := ShardPath(base, 3); got != base+".shard3" {
		t.Fatalf("shard 3 path = %q", got)
	}
	fill(t, c, 100)
	if c.Records() != 400 {
		t.Fatalf("records = %d", c.Records())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(MetaPath(base)); err != nil {
		t.Fatalf("sidecar missing after create: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(ShardPath(base, i)); err != nil {
			t.Fatalf("shard %d image missing: %v", i, err)
		}
	}

	c2, err := Open(base, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Recovered {
		t.Fatal("clean reopen ran recovery")
	}
	if c2.Records() != 400 {
		t.Fatalf("records after clean reopen = %d", c2.Records())
	}
}

// TestClusterLayoutGuards: every way the on-disk layout can disagree with
// -cluster-shards is refused before any heap opens.
func TestClusterLayoutGuards(t *testing.T) {
	dir := t.TempDir()

	// Created at 4, reopened at 2 and at 1: both refused.
	base := filepath.Join(dir, "four.heap")
	c, err := Open(base, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, testConfig(2)); err == nil || !strings.Contains(err.Error(), "records 4 shards") {
		t.Fatalf("reopen 4-shard dataset at 2 = %v", err)
	}
	if _, err := Open(base, testConfig(1)); err == nil {
		t.Fatal("reopen 4-shard dataset at 1 accepted")
	}

	// A pre-cluster (single-shard, no sidecar) image reopened sharded: refused.
	solo := filepath.Join(dir, "solo.heap")
	cs, err := Open(solo, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(solo, testConfig(4)); err == nil || !strings.Contains(err.Error(), "no cluster sidecar") {
		t.Fatalf("sharded reopen of pre-cluster image = %v", err)
	}
	// ...but reopening it single-shard stays fine.
	cs2, err := Open(solo, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cs2.Close()

	// A corrupt sidecar is an error, not a silent default.
	if err := os.WriteFile(MetaPath(base), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, testConfig(4)); err == nil {
		t.Fatal("corrupt sidecar accepted")
	}

	// EnsureMeta writes a missing sidecar and verifies an existing one.
	rep := filepath.Join(dir, "replica.heap")
	if err := EnsureMeta(rep, 4); err != nil {
		t.Fatal(err)
	}
	if err := EnsureMeta(rep, 4); err != nil {
		t.Fatal(err)
	}
	if err := EnsureMeta(rep, 2); err == nil {
		t.Fatal("EnsureMeta mismatch accepted")
	}
}

// TestClusterParallelCrashRecovery: kill -9 semantics across the whole
// cluster — each shard's image is written dirty (as a checkpoint does), the
// process "dies" without Close, and the next Open must recover every shard
// (in parallel) with all records intact.
func TestClusterParallelCrashRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "crash.heap")
	c, err := Open(base, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 200)
	// Checkpoint each shard with the dirty flag still set (what SAVE does),
	// then abandon the in-memory state: the images now replay a SIGKILL'd
	// process's disk.
	for _, sh := range c.Shards {
		sh.Heap.Region().Persist()
		if err := sh.Heap.Region().SaveFile(sh.Path); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := Open(base, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Recovered {
		t.Fatal("crashed cluster reopened without recovery")
	}
	recovered := 0
	for i, sh := range c2.Shards {
		if !sh.Recovered {
			t.Fatalf("shard %d did not recover", i)
		}
		recovered++
	}
	if c2.Records() != 800 {
		t.Fatalf("records after crash recovery = %d, want 800", c2.Records())
	}
	if c2.RecStats.ReachableBlocks == 0 || c2.RecoveryWall <= 0 {
		t.Fatalf("merged recovery stats empty: %+v wall=%v", c2.RecStats, c2.RecoveryWall)
	}
	// The merged stats are the shards' sum on every field — reflected, so a
	// field added later cannot be forgotten the way four once were.
	sum := reflect.New(reflect.TypeOf(c2.RecStats)).Elem()
	for _, sh := range c2.Shards {
		v := reflect.ValueOf(sh.RecStats)
		for f := 0; f < v.NumField(); f++ {
			if fv := sum.Field(f); fv.Kind() == reflect.Uint64 {
				fv.SetUint(fv.Uint() + v.Field(f).Uint())
			} else {
				fv.SetInt(fv.Int() + v.Field(f).Int())
			}
		}
	}
	if want := sum.Interface().(ralloc.RecoveryStats); c2.RecStats != want {
		t.Fatalf("merged recovery stats %+v, want the per-shard sum %+v", c2.RecStats, want)
	}
	if c2.RecStats.PartialSBs+c2.RecStats.FullSBs == 0 {
		t.Fatalf("merged recovery stats count no superblock holding records: %+v", c2.RecStats)
	}
	// Per-shard keys still readable through each shard's own store.
	for i, sh := range c2.Shards {
		k := []byte(fmt.Sprintf("s%d-key-%04d", i, 199))
		if _, ok, _ := sh.Store.GetBytes(k); !ok {
			t.Fatalf("shard %d lost %s", i, k)
		}
	}
	t.Logf("recovered %d shards in %v wall (%v summed recovery work)",
		recovered, c2.RecoveryWall, c2.RecStats.Duration)
}
