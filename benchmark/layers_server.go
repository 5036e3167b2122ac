package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/cluster/slot"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/repl"
	"repro/internal/server"
)

// Per-layer rows of server, cluster and repl: the production wiring rebuilt
// in process from cluster.Open and server.NewSharded, spoken to over a unix
// socket by the benchmark's own client, one connection, 16-deep.

// inproc is one in-process server.
type inproc struct {
	clus *cluster.Cluster
	srv  *server.Server
	sock string
}

// startInproc opens a cluster (volatile when heapPath is empty), loads every
// record directly through each shard's store, and serves it. File-backed
// shards get the checkpoint wiring cmd/ralloc-serve gives them.
func startInproc(r *run, name, heapPath string, shards, heapMB int, scfg server.Config) (*inproc, error) {
	clus, err := cluster.Open(heapPath, cluster.Config{
		Shards:  shards,
		Ralloc:  ralloc.Config{SBRegion: uint64(heapMB) << 20 / uint64(shards), Pmem: servedPmem},
		Buckets: r.sc.buckets / shards,
	})
	if err != nil {
		return nil, err
	}
	if err := loadCluster(clus, r.sc.records); err != nil {
		return nil, err
	}
	backends := make([]server.ShardBackend, shards)
	for i, sh := range clus.Shards {
		be := server.ShardBackend{Alloc: sh.Alloc, Store: sh.Store}
		if heapPath != "" {
			region, path := sh.Heap.Region(), sh.Path
			be.CheckpointOnline = func(fence func(cut func() error) error) (server.CheckpointStats, error) {
				st, err := region.SaveFileOnline(path, fence)
				return server.CheckpointStats{Lines: st.Lines, Recopied: st.Recopied, FenceRecopied: st.FenceRecopied, Rounds: st.Rounds}, err
			}
			be.CheckpointOffset = region.SetReplMeta
			be.OpenCheckpoint = func() (*server.CheckpointImage, error) { return openCheckpoint(path) }
		}
		backends[i] = be
	}
	p := &inproc{clus: clus, srv: server.NewSharded(backends, scfg), sock: filepath.Join(r.tmp, name+".sock")}
	l, err := net.Listen("unix", p.sock)
	if err != nil {
		return nil, err
	}
	go func() {
		_ = p.srv.Serve(l) // returns ErrServerClosed at stop
	}()
	return p, nil
}

func (p *inproc) stop() {
	_ = p.srv.Shutdown(2 * time.Second) // a drain timeout only means a client was still connected
	os.Remove(p.sock)
}

// openCheckpoint opens a checkpoint image for streaming to a replica, reading
// the stamped stream position from the opened file itself.
func openCheckpoint(path string) (*server.CheckpointImage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, pmem.ImageMetaLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, err
	}
	id, off, err := pmem.ParseImageMeta(hdr)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &server.CheckpointImage{R: f, ReplID: id, ReplOffset: off}, nil
}

// loadCluster stores version 0 of every record in the shard its key routes to.
func loadCluster(clus *cluster.Cluster, records int) error {
	hds := make([]alloc.Handle, len(clus.Shards))
	for i, sh := range clus.Shards {
		hds[i] = sh.Alloc.NewHandle()
	}
	return loadRecords(records, func(k, v []byte) bool {
		i := slot.ShardOf(k, len(clus.Shards))
		return clus.Shards[i].Store.SetBytes(hds[i], k, v)
	})
}

// player replays op streams against one in-process server connection.
type player struct {
	t     *tracer
	c     *client
	tally tally
	err   error
}

func newPlayer(t *tracer, p *inproc) (*player, error) {
	c, err := dialUnix(p.sock)
	if err != nil {
		return nil, err
	}
	return &player{t: t, c: c}, nil
}

// play measures ops at the given pipeline depth; the first error sticks.
func (pl *player) play(name string, ops []op, depth int, missFails bool) sample {
	return pl.t.measure(name, len(ops), nil, func(lo, hi int) {
		for i := lo; i < hi && pl.err == nil; i += depth {
			pl.err = pl.c.doBatch(ops[i:min(i+depth, hi)], &pl.tally, missFails, nil)
		}
	})
}

// finish closes the connection and folds the player's counts into the run.
func (pl *player) finish(r *run) error {
	pl.c.close()
	r.tally.add(pl.tally)
	return pl.err
}

// streamFor is the op mix the traced replay takes for a workload: its own
// for the kv_* workloads, the nearest socket mix for the other two.
func streamFor(workload string) string {
	switch workload {
	case "alloc_churn":
		return "kv_write"
	case "crash_recover":
		return "set_only"
	}
	return workload
}

func layerServer(r *run, t *tracer) error {
	sc, n := r.sc, r.sc.traceOps
	gets := genStream("kv_read", r.opt.seed, 0, sc.records, n)
	sets := genStream("set_only", r.opt.seed, 0, sc.records, n)
	pings := make([]op, n)
	for i := range pings {
		pings[i].kind = opPing
	}

	p, err := startInproc(r, "srv", "", 1, sc.smallHeapMB, server.Config{})
	if err != nil {
		return err
	}
	defer p.stop()
	pl, err := newPlayer(t, p)
	if err != nil {
		return err
	}
	r.set("server.ping_p16.ns", pl.play("server.ping_p16", pings, sc.depth, true).ns)
	g := pl.play("server.get_p16", gets, sc.depth, true)
	s := pl.play("server.set_p16", sets, sc.depth, true)
	r.set("server.get_p16.ns", g.ns)
	r.set("server.get_p16.allocs", g.allocs)
	r.set("server.get_p16.self_ns", g.ns-r.vals["kvstore.get.ns"])
	r.set("server.set_p16.ns", s.ns)
	r.set("server.set_p16.self_ns", s.ns-r.vals["kvstore.set.ns"])
	r.set("server.get_p1.us", pl.play("server.get_p1", gets[:n/8], 1, true).ns/1e3)

	// MULTI, eight queued commands of the 50/50 mix, EXEC: per queued command.
	mixed := genStream("kv_write", r.opt.seed, 0, sc.records, n/2)
	r.set("server.multi_exec_8.ns", t.measure("server.multi_exec_8", len(mixed), nil, func(lo, hi int) {
		for i := lo; i+8 <= hi && pl.err == nil; i += 8 {
			pl.err = pl.multiExec(mixed[i : i+8])
		}
	}).ns)

	// Tracing overhead: the selected workload's own stream at the server
	// entry, with and without spans, alternating.
	own := genStream(streamFor(r.opt.workload), r.opt.seed, 0, sc.records, n)
	var plain, traced []float64
	for rep := 0; rep < 2; rep++ {
		t.off = true
		plain = append(plain, pl.play("", own, sc.depth, false).ns)
		t.off = false
		traced = append(traced, pl.play("replay."+r.opt.workload, own, sc.depth, false).ns)
	}
	r.set("harness.trace_overhead.frac", 1-median(plain)/median(traced))
	r.set("client.gen.ns", genCostNs(own, sc.depth, n))

	snap := p.srv.LatencySnapshot()
	r.set("server.cmd_p50.us", snap.Quantile(0.50)/1e3)
	r.set("server.cmd_p99.us", snap.Quantile(0.99)/1e3)
	if err := pl.finish(r); err != nil {
		return err
	}

	// The same GET stream through four shards: what routing costs.
	p4, err := startInproc(r, "srv4", "", 4, sc.smallHeapMB, server.Config{})
	if err != nil {
		return err
	}
	defer p4.stop()
	pl4, err := newPlayer(t, p4)
	if err != nil {
		return err
	}
	r.set("server.get_4shards_p16.ns", pl4.play("server.get_4shards_p16", gets, sc.depth, true).ns)
	if err := pl4.finish(r); err != nil {
		return err
	}
	keys := make([]byte, 0, n*keyLen)
	for _, o := range gets {
		keys = appendKey(keys, o.id)
	}
	r.set("cluster.route.ns", t.measure("cluster.route", n, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(slot.ShardOf(keys[i*keyLen:(i+1)*keyLen], 4))
		}
	}).ns)

	return layerSave(r, t, sets)
}

// multiExec sends one transaction of queued ops and checks every reply.
func (pl *player) multiExec(ops []op) error {
	c := pl.c
	c.wbuf = appendCommand(c.wbuf[:0], "MULTI")
	for _, o := range ops {
		c.wbuf = appendOp(c.wbuf, o)
	}
	c.wbuf = appendCommand(c.wbuf, "EXEC")
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	for i := 0; i < 1+len(ops); i++ { // +OK, then +QUEUED per op
		rp, err := c.readReply()
		if err != nil {
			return err
		}
		if rp.kind != '+' {
			pl.tally.failed++
		}
	}
	rp, err := c.readReply()
	if err != nil {
		return err
	}
	if rp.kind != '*' || rp.n != int64(len(ops)) {
		return fmt.Errorf("EXEC: unexpected reply %c %d", rp.kind, rp.n)
	}
	for _, o := range ops {
		if err := c.check(o, &pl.tally, true, nil); err != nil {
			return err
		}
	}
	return nil
}

// layerSave measures the online checkpoint and what it costs the foreground,
// on a file-backed server of the small heap size, then has a replica
// bootstrap from it.
func layerSave(r *run, t *tracer, sets []op) error {
	sc := r.sc
	heapPath := filepath.Join(r.tmp, "save.heap")
	p, err := startInproc(r, "save", heapPath, 1, sc.smallHeapMB, server.Config{ReplBacklogBytes: 1 << 20})
	if err != nil {
		return err
	}
	defer p.stop()
	pl, err := newPlayer(t, p)
	if err != nil {
		return err
	}
	var stop atomic.Bool
	var saves int
	var saveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for saveErr == nil && (!stop.Load() || saves == 0) {
			saveErr = p.srv.Save()
			saves++
		}
	}()
	under := pl.play("server.set_p16_under_save", sets, sc.depth, true)
	stop.Store(true)
	wg.Wait()
	if saveErr != nil {
		return fmt.Errorf("background SAVE: %w", saveErr)
	}
	r.set("server.set_p16_under_save.ns", under.ns)
	v, err := pl.c.info("persistence", "last_checkpoint_total_us", "last_checkpoint_fence_us")
	if err != nil {
		return err
	}
	r.set("server.save_total.ms", v[0]/1e3)
	r.set("server.save_fence.us", v[1])
	r.doc.Extra["saves_under_load"] = float64(saves)
	if err := pl.finish(r); err != nil {
		return err
	}

	d, err := t.timed("repl.full_sync", func() error {
		_, _, err := repl.BootstrapImage(p.sock, filepath.Join(r.tmp, "replica.heap"))
		return err
	})
	if err != nil {
		return fmt.Errorf("full sync: %w", err)
	}
	r.set("repl.full_sync.ms", ms(d))
	return nil
}

// layerRepl prices the write feed: appending to it, a replica catching up on
// it, and a primary's SETs with that replica attached.
func layerRepl(r *run, t *tracer) error {
	sc, n := r.sc, r.sc.traceOps
	sets := genStream("set_only", r.opt.seed, 0, sc.records, n)
	enc := encode(sets[:min(n, chunkOps)])
	feed := repl.NewFeed(1<<20, 1, 0)
	args := [][]byte{[]byte("SET"), nil, nil}
	r.set("repl.feed_append.ns", t.measure("repl.feed_append", n, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			args[1], args[2] = enc.key(i%chunkOps), enc.val(i%chunkOps)
			sink += feed.Append(args)
		}
	}).ns)

	// Primary and replica hold the same records; the replica starts at the
	// stream's origin, and the backlog is large enough to keep all of it.
	const backlog = 64 << 20
	prim, err := startInproc(r, "prim", "", 1, sc.smallHeapMB, server.Config{ReplBacklogBytes: backlog})
	if err != nil {
		return err
	}
	defer prim.stop()
	pl, err := newPlayer(t, prim)
	if err != nil {
		return err
	}
	alone := pl.play("repl.primary_alone", sets, sc.depth, true)
	primID, _ := prim.srv.ReplMeta()
	rep, err := startInproc(r, "repl", "", 1, sc.smallHeapMB, server.Config{ReplBacklogBytes: backlog, ReplicaOf: prim.sock, ReplID: primID})
	if err != nil {
		return err
	}
	defer rep.stop()
	wait := func() error {
		rp, err := pl.c.do("WAIT", "1", "60000")
		if err == nil && (rp.kind != ':' || rp.n < 1) {
			err = fmt.Errorf("WAIT: replica did not catch up (%c %d %q)", rp.kind, rp.n, rp.data)
		}
		return err
	}
	// The replica starts streaming as soon as it is up; the span runs from
	// then until the primary sees its acknowledgement of the whole backlog.
	d, err := t.timed("repl.catchup", wait)
	if err != nil {
		return err
	}
	r.set("repl.catchup_kops", float64(n)/d.Seconds()/1e3)
	with := pl.play("repl.primary_with_replica", sets, sc.depth, true)
	if err := wait(); err != nil {
		return err
	}
	r.set("repl.primary_set_overhead.ns", with.ns-alone.ns)
	return pl.finish(r)
}

// imageOf builds a dirty heap image at path: open a fresh cluster there, load
// every record, and snapshot the regions while the heaps are still open (so
// the dirty flag rides along, as after a kill -9 that follows a SAVE). It
// returns the cluster so the caller can keep using the live heaps.
func imageOf(path string, ccfg cluster.Config, records int) (*cluster.Cluster, time.Duration, error) {
	clus, err := cluster.Open(path, ccfg)
	if err != nil {
		return nil, 0, err
	}
	if err := loadCluster(clus, records); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for _, sh := range clus.Shards {
		if _, err := sh.Heap.Region().SaveFileOnline(sh.Path, func(cut func() error) error { return cut() }); err != nil {
			return nil, 0, err
		}
	}
	return clus, time.Since(t0), nil
}

// layerRecovery measures what a restart waits for, as the server is
// configured (crash-simulating region, no modelled latency): reading the
// image, recovery, attach; at two capacities holding the same live data, and
// split four ways. It also runs the strict durability test a process kill
// cannot give.
func layerRecovery(r *run, t *tracer) error {
	sc := r.sc
	ccfg := func(shards, mb int) cluster.Config {
		return cluster.Config{
			Shards:  shards,
			Ralloc:  ralloc.Config{SBRegion: uint64(mb) << 20 / uint64(shards), Pmem: servedPmem},
			Buckets: sc.buckets / shards,
		}
	}
	// timedOpen opens the image at path, checks every record came back, and
	// returns the cluster and the wall time of cluster.Open. Once only: each
	// open of the big heap touches half a gigabyte of fresh memory, and on a
	// VM that returns freed pages to its host a second one is slower for
	// reasons that have nothing to do with the code.
	timedOpen := func(name, path string, cfg cluster.Config, wantRecovered bool) (*cluster.Cluster, time.Duration, error) {
		var clus *cluster.Cluster
		d, err := t.timed(name, func() (err error) { clus, err = cluster.Open(path, cfg); return err })
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		r.tally.ops += uint64(sc.records)
		if clus.Recovered != wantRecovered {
			r.tally.failed++
		}
		if got := clus.Records(); got != sc.records {
			r.tally.failed += uint64(max(sc.records-got, 1))
		}
		return clus, d, nil
	}

	// The big heap: the capacity the server ships with.
	big := filepath.Join(r.tmp, "big.heap")
	_, saved, err := imageOf(big, ccfg(1, sc.heapMB), sc.records)
	if err != nil {
		return err
	}
	r.set("pmem.save_online.ms", ms(saved))
	var region *pmem.Region
	d, err := t.timed("pmem.load_file", func() (err error) { region, err = pmem.LoadFile(big, servedPmem); return err })
	if err != nil {
		return err
	}
	r.set("pmem.load_file.ms", ms(d))
	clus, d, err := timedOpen("cluster.open_dirty_big", big, ccfg(1, sc.heapMB), true)
	if err != nil {
		return err
	}
	r.set("cluster.open_dirty_256mb.ms", ms(d))
	r.set("ralloc.recover.ms", ms(clus.RecStats.Duration))
	r.set("ralloc.recover.trace_ms", ms(clus.RecStats.TraceTime))
	r.set("ralloc.recover.sweep_ms", ms(clus.RecStats.SweepTime))
	r.set("ralloc.recover.flushes", float64(clus.Shards[0].Heap.Region().Stats().Flushes))
	r.doc.Extra["recover.capacity_lines"] = float64(clus.Shards[0].Heap.Region().Size() / pmem.LineBytes)

	// The same image, recovered with two trace workers.
	heap, dirty, err := ralloc.Attach(region, ccfg(1, sc.heapMB).Ralloc)
	if err != nil {
		return err
	}
	if !dirty {
		return errors.New("recovery rows: the saved image is not dirty")
	}
	heap.GetRoot(0, kvstore.Filter(heap.AsAllocator(), heap.GetRoot(0, nil)))
	var st ralloc.RecoveryStats
	if _, err := t.timed("ralloc.recover_parallel2", func() (err error) { st, err = heap.RecoverParallel(2); return err }); err != nil {
		return err
	}
	r.set("ralloc.recover_parallel2.ms", ms(st.Duration))
	if st.ReachableBlocks != clus.RecStats.ReachableBlocks {
		r.tally.failed++
	}
	os.Remove(big)

	// The small heap: same records, a quarter of the capacity. Before its
	// image is taken, the strict test: drop every unflushed line (EvictProb
	// is 0), recover, and re-read every record that was acknowledged.
	small := filepath.Join(r.tmp, "small.heap")
	live, err := cluster.Open("", ccfg(1, sc.smallHeapMB))
	if err != nil {
		return err
	}
	if err := loadCluster(live, sc.records); err != nil {
		return err
	}
	lost, err := strictCrash(live.Shards[0], ccfg(1, sc.smallHeapMB).Ralloc, sc.records)
	if err != nil {
		return err
	}
	r.set("crash.strict_acked_lost", float64(lost))
	r.tally.ops += uint64(sc.records)
	r.tally.failed += uint64(lost)

	if _, _, err := imageOf(small, ccfg(1, sc.smallHeapMB), sc.records); err != nil {
		return err
	}
	clus, d, err = timedOpen("cluster.open_dirty_small", small, ccfg(1, sc.smallHeapMB), true)
	if err != nil {
		return err
	}
	r.set("cluster.open_dirty_64mb.ms", ms(d))
	if err := clus.Close(); err != nil { // writes the clean image
		return err
	}
	if _, d, err = timedOpen("cluster.open_clean", small, ccfg(1, sc.smallHeapMB), false); err != nil {
		return err
	}
	r.set("cluster.open_clean.ms", ms(d))
	os.Remove(small)

	// Four shards of a quarter each: same total capacity as the small heap.
	quad := filepath.Join(r.tmp, "quad.heap")
	if _, _, err := imageOf(quad, ccfg(4, sc.smallHeapMB), sc.records); err != nil {
		return err
	}
	if _, d, err = timedOpen("cluster.open_dirty_4shards", quad, ccfg(4, sc.smallHeapMB), true); err != nil {
		return err
	}
	r.set("cluster.open_dirty_4shards.ms", ms(d))
	return nil
}

// strictCrash crashes the shard's region with every unflushed line dropped,
// recovers it, and counts the loaded records that cannot be read back intact.
func strictCrash(sh *cluster.Shard, cfg ralloc.Config, records int) (lost int, err error) {
	region := sh.Heap.Region()
	root := sh.Heap.GetRoot(0, nil)
	if err := region.Crash(); err != nil {
		return 0, err
	}
	heap, dirty, err := ralloc.Attach(region, cfg)
	if err != nil {
		return 0, err
	}
	if !dirty {
		return 0, errors.New("strict crash: heap not dirty after a crash")
	}
	a := heap.AsAllocator()
	heap.GetRoot(0, kvstore.Filter(a, root))
	if _, err := heap.Recover(); err != nil {
		return 0, err
	}
	store := kvstore.Attach(a, root)
	var key []byte
	for id := 0; id < records; id++ {
		key = appendKey(key[:0], uint32(id))
		v, ok, _ := store.GetBytes(key)
		if _, good := checkValue(v, uint32(id)); !ok || !good {
			lost++
		}
	}
	return lost, nil
}
