// Command ralloc-serve is the stand-alone network server the paper's
// application study deliberately stripped away (§6.3): a RESP2-speaking
// key-value server whose entire dataset lives in recoverable Ralloc heaps —
// each the heap file itself, mapped (pmem.MapFile). A SIGKILL'd server restarts
// through Open → dirty → Recover, the store's attach riding the trace, with every
// write it had acknowledged; a clean shutdown (SIGTERM or the SHUTDOWN
// command) drains connections, clears the dirty flag and syncs the files.
//
//	ralloc-serve -heap /tmp/kv.heap -tcp :6379
//	ralloc-serve -heap /tmp/kv.heap -unix /tmp/kv.sock -boundmb 64 -checkpoint 30s
//	ralloc-serve -heap /tmp/kv.heap -expire-cycle 50ms -expire-sample 100
//	ralloc-serve -heap /tmp/kv.heap -cluster-shards 4    # 4 heaps, one keyspace
//	ralloc-serve -heap /tmp/replica.heap -tcp :6380 -replicaof localhost:6379
//
// SAVE checkpoints online, to "<heap>.save": a write barrier tracks lines
// dirtied while the image streams out, dirty lines are re-copied, and commands
// are excluded only for the final cut-over delta. The regions run
// pmem.ModeFast — flushes and fences are issued and counted, with no shadow
// copy of the heap. What survives a kill -9 is the mapped file, that is the
// page cache; what survives a power failure is the last SAVE (-checkpoint
// schedules them) or a clean shutdown. A command that is several structure
// operations, and an EXEC of several writes, is all-or-nothing across a kill
// (internal/server/journal.go); FLUSHALL is not.
//
// This file is flag parsing, listeners, signals and the checkpoint ticker;
// opening, recovering, reporting on and closing the heaps is
// internal/cluster, and the heap-to-backend wiring is server.RegionBackend.
//
// -cluster-shards N splits the keyspace across N independent heaps routed by
// Redis-cluster hash slot (internal/cluster): shard 0 lives at -heap, shard
// i at "<heap>.shard<i>", and a "<heap>.cluster" sidecar pins the count.
// Each shard checkpoints, expires, and recovers independently — a crash
// restart recovers all shards in parallel, and a SAVE fence stalls only 1/N
// of the keyspace at a time. Multi-key commands whose keys hash to different
// shards answer -CROSSSLOT (use hash tags, "user:{42}:a", to co-locate).
// -heapmb and -boundmb are TOTAL budgets, divided evenly across shards.
//
// Keys may carry TTLs (EXPIRE/PEXPIRE/SETEX/PSETEX/TTL/PTTL/PERSIST): the
// deadline is persisted inside the record itself, so expiration survives
// kill -9 — a key that expired before the crash is still expired after
// recovery. Space is reclaimed by the active expiry cycle (-expire-cycle),
// which runs under the same quiesce barrier as SAVE checkpoints.
//
// Replication: any file-backed server is a potential primary — replicas
// bootstrap with PSYNC, fetching one checkpoint image per shard and then the
// live write feed. -replicaof starts the process as a replica: with no local
// images it downloads them; with heaps a clean shutdown stamped it probes
// whether the primary's backlog still covers the stamped offset (partial
// resync) and re-downloads only if not; heaps a kill left carry no stamp and
// are downloaded again. A replica serves reads, answers writes with
// -READONLY, and is promoted in place by REPLICAOF NO ONE. When the primary
// demands a full resync mid-stream, the process drains, discards its heap
// state, and re-bootstraps automatically. Primary and replica must agree on
// -cluster-shards (the handshake carries the image count).
//
// Speak to it with any RESP client (redis-cli included) or
// internal/server.Client; benchmark/ measures it (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/slot"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/server"
)

// options is the parsed flag set, carried whole through the serve/resync
// loop so every iteration runs with identical configuration.
type options struct {
	heapPath      string
	heapMB        uint64
	allocShards   int
	clusterShards int
	buckets       int
	boundMB       uint64
	tcpAddr       string
	unixAddr      string
	maxConns      int
	checkpoint    time.Duration
	drain         time.Duration
	expireTick    time.Duration
	expireN       int
	metricsAddr   string
	slowerThan    time.Duration
	slowlogLen    int
	latThresh     time.Duration
	replicaOf     string
	replBacklog   int
}

func main() {
	var o options
	flag.StringVar(&o.heapPath, "heap", "", "heap image path (empty: volatile, data dies with the process)")
	flag.Uint64Var(&o.heapMB, "heapmb", 256, "total superblock region size (MB), divided evenly across -cluster-shards")
	flag.IntVar(&o.allocShards, "alloc-shards", 0, "allocator partial-list shards per size class within each heap (0: near GOMAXPROCS)")
	flag.IntVar(&o.clusterShards, "cluster-shards", 1, "keyspace shards: independent persistent heaps behind one hash-slot-routed keyspace")
	flag.IntVar(&o.buckets, "buckets", 65536, "total hash buckets for a freshly created store, divided across -cluster-shards")
	flag.Uint64Var(&o.boundMB, "boundmb", 0, "total memory budget (MB), divided across -cluster-shards, enforced by CLOCK eviction; 0 = unbounded")
	flag.StringVar(&o.tcpAddr, "tcp", "", "TCP listen address (e.g. :6379)")
	flag.StringVar(&o.unixAddr, "unix", "", "unix socket path")
	flag.IntVar(&o.maxConns, "maxconns", 0, "max simultaneous connections; 0 = unlimited")
	flag.DurationVar(&o.checkpoint, "checkpoint", 0, "periodic backup (SAVE to <heap>.save) interval (file-backed heaps); 0 disables")
	flag.DurationVar(&o.drain, "drain", 5*time.Second, "graceful shutdown drain timeout")
	flag.DurationVar(&o.expireTick, "expire-cycle", 100*time.Millisecond, "active expiry cycle interval; 0 disables (lazy expiry only)")
	flag.IntVar(&o.expireN, "expire-sample", 20, "max expired keys reclaimed per expiry cycle (per shard)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "HTTP listen address for /metrics (Prometheus text) and /debug/pprof; empty disables")
	flag.DurationVar(&o.slowerThan, "slowlog-log-slower-than", 10*time.Millisecond, "slow-log threshold; negative logs every command, 0 disables the slow log")
	flag.IntVar(&o.slowlogLen, "slowlog-max-len", 128, "slow-log ring capacity")
	flag.DurationVar(&o.latThresh, "latency-threshold", 0, "LATENCY 'command' event threshold; 0 disables command latency events")
	flag.StringVar(&o.replicaOf, "replicaof", "", "start as a replica of this primary (host:port or unix socket path); bootstraps the heaps from the primary's checkpoints")
	flag.IntVar(&o.replBacklog, "repl-backlog", 1<<20, "replication backlog capacity in bytes (a fresh primary fills it from its first full resync on)")
	flag.Parse()
	if o.tcpAddr == "" && o.unixAddr == "" {
		o.tcpAddr = ":6379"
	}
	if o.clusterShards < 1 || o.clusterShards > slot.MaxShards {
		fatal(fmt.Errorf("-cluster-shards %d outside [1, %d]", o.clusterShards, slot.MaxShards))
	}
	if o.replicaOf != "" && o.heapPath == "" {
		fatal(fmt.Errorf("-replicaof requires -heap: the replica bootstraps by downloading the primary's checkpoint images"))
	}
	if o.boundMB > 0 && o.replicaOf != "" {
		// A bounded store evicts under memory pressure, and evictions are not
		// propagated through the feed — a bounded replica would silently
		// diverge from its primary.
		fatal(fmt.Errorf("-boundmb cannot be combined with -replicaof: evictions are not replicated"))
	}

	// The serve loop: one iteration per server lifetime. A replica whose
	// primary demands a full resync exits its iteration with resync=true and
	// re-enters — re-probing (and re-downloading) the images before serving
	// again. Everything else exits the loop.
	for {
		if !run(&o) {
			return
		}
		fmt.Println("re-bootstrapping from primary after full-resync demand...")
	}
}

// run serves one server lifetime and reports whether the process should
// re-bootstrap and serve again (replica full-resync path).
func run(o *options) (resync bool) {
	// Replica bootstrap happens before the heaps open: with no usable local
	// images the primary's checkpoints become our initial heap state.
	if o.replicaOf != "" {
		if err := cluster.BootstrapReplica(os.Stdout, o.heapPath, o.clusterShards, o.replicaOf); err != nil {
			fatal(fmt.Errorf("replica bootstrap: %w", err))
		}
	}

	n := o.clusterShards
	perBuckets := o.buckets / n
	if perBuckets < 16 {
		perBuckets = 16
	}
	ccfg := cluster.Config{
		Shards: n,
		Ralloc: ralloc.Config{
			SBRegion: (o.heapMB << 20) / uint64(n),
			Shards:   o.allocShards,
			Pmem:     pmem.Config{Mode: pmem.ModeFast},
		},
		Buckets: perBuckets,
		Bound:   (o.boundMB << 20) / uint64(n),
	}
	clus, err := cluster.Open(o.heapPath, ccfg)
	if err != nil {
		fatal(err)
	}
	clus.Report(os.Stdout, o.buckets, o.boundMB)

	shutdownCh := make(chan os.Signal, 2)
	signal.Notify(shutdownCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(shutdownCh)
	// requestShutdown never blocks: after the first delivery the main
	// goroutine stops receiving, and extra triggers must not hang senders.
	requestShutdown := func() {
		select {
		case shutdownCh <- syscall.SIGTERM:
		default:
		}
	}
	resyncCh := make(chan struct{}, 1)

	srvCfg := server.Config{
		MaxConns:             o.maxConns,
		OnShutdown:           requestShutdown,
		ActiveExpiryInterval: o.expireTick,
		ActiveExpirySample:   o.expireN,
		SlowlogSlowerThan:    o.slowerThan,
		SlowlogMaxLen:        o.slowlogLen,
		LatencyThreshold:     o.latThresh,
		InfoSections:         clus.Sections(),
	}
	replicated := o.heapPath != "" && ccfg.Bound == 0
	if replicated {
		// Replication rides on file-backed checkpoints: each image header
		// carries the feed position (SetReplMeta, stamped inside every
		// cut-over fence — one global fence at N>1, so all images carry the
		// same position), and full resyncs stream the image files. A bounded
		// store stays replication-free — evictions are not in the feed.
		srvCfg.ReplBacklogBytes = o.replBacklog
		srvCfg.ReplicaOf = o.replicaOf
		srvCfg.ReplID, srvCfg.ReplOffset = clus.Shards[0].Heap.Region().ReplMeta()
		srvCfg.OnFullResyncNeeded = func() {
			select {
			case resyncCh <- struct{}{}:
			default:
			}
			requestShutdown()
		}
	}

	backends := make([]server.ShardBackend, n)
	for i, sh := range clus.Shards {
		backends[i] = server.RegionBackend(sh.Alloc, sh.Store, sh.Heap.Region(), sh.Path, replicated)
	}
	srv := server.NewSharded(backends, srvCfg)
	fmt.Printf("serving %d commands (COMMAND / COMMAND INFO for introspection, INFO commandstats for per-command counters)\n",
		server.CommandCount())
	if o.replicaOf != "" {
		fmt.Printf("replica of %s (writes answer -READONLY; promote with REPLICAOF NO ONE)\n", o.replicaOf)
	}

	clus.RecordStartup(srv.Events())

	// Optional observability listener: /metrics (Prometheus text, no
	// dependencies) plus /debug/pprof on a private mux. The registry draws
	// from the server (commands, checkpoints, replication, keyspace, the
	// ralloc_shard_* cluster families) and the heaps (allocator counters).
	var metricsSrv *http.Server
	if o.metricsAddr != "" {
		reg := obs.NewRegistry()
		reg.Register(srv)
		reg.Register(clus)
		ml, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		metricsSrv = &http.Server{Handler: obs.NewHTTPHandler(reg)}
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ml.Addr())
		go func() {
			if err := metricsSrv.Serve(ml); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "metrics serve: %v\n", err)
			}
		}()
	}

	for _, l := range listen(o.tcpAddr, o.unixAddr) {
		fmt.Printf("listening on %s://%s\n", l.Addr().Network(), l.Addr())
		go func(l net.Listener) {
			if err := srv.Serve(l); err != nil && err != server.ErrServerClosed {
				// A dead listener is fatal to serving but must still go
				// through the clean shutdown path, not os.Exit: a clean
				// close spares the next start its recovery.
				fmt.Fprintf(os.Stderr, "serve %s: %v\n", l.Addr(), err)
				requestShutdown()
			}
		}(l)
	}

	stopTicker := make(chan struct{})
	var tickerWG sync.WaitGroup
	if o.checkpoint > 0 && o.heapPath != "" {
		tickerWG.Add(1)
		go func() {
			defer tickerWG.Done()
			t := time.NewTicker(o.checkpoint)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := srv.Save(); err != nil {
						fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
					}
				case <-stopTicker:
					return
				}
			}
		}()
	}

	sig := <-shutdownCh
	fmt.Printf("shutting down (%v): draining connections...\n", sig)
	// Join the ticker before Close: an in-flight checkpoint copies a heap
	// that Close is about to mark clean.
	close(stopTicker)
	tickerWG.Wait()
	if err := srv.Shutdown(o.drain); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if o.unixAddr != "" {
		os.Remove(o.unixAddr)
	}
	clus.StampReplMeta(srv.ReplMeta())
	if err := clus.Close(); err != nil {
		fatal(err)
	}
	if o.heapPath != "" {
		fmt.Printf("heap closed cleanly at %s\n", o.heapPath)
	}
	select {
	case <-resyncCh:
		return true
	default:
		return false
	}
}

// listen opens the configured listeners, removing a stale unix socket first.
func listen(tcpAddr, unixAddr string) []net.Listener {
	var ls []net.Listener
	if tcpAddr != "" {
		l, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			fatal(err)
		}
		ls = append(ls, l)
	}
	if unixAddr != "" {
		os.Remove(unixAddr)
		l, err := net.Listen("unix", unixAddr)
		if err != nil {
			fatal(err)
		}
		ls = append(ls, l)
	}
	return ls
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
