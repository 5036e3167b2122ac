package server

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster/shardlock"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/resp"
)

// InfoSection is one embedder-contributed section of the stat table: rows
// (or Render, for an embedder that formats its own INFO lines) under a name.
type InfoSection = obs.Section

// thresholdNs folds a config threshold into the one-comparison form invoke
// uses: zero (unset) disables via the MaxInt64 sentinel, negative admits
// everything, positive is the nanosecond threshold itself.
func thresholdNs(d time.Duration) int64 {
	switch {
	case d == 0:
		return math.MaxInt64
	case d < 0:
		return 0
	default:
		return int64(d)
	}
}

// Config tunes a Server.
type Config struct {
	// MaxConns caps simultaneously served connections; further accepted
	// connections wait for a slot. 0 means unlimited.
	MaxConns int
	// OnShutdown, if non-nil, is invoked (once) when a client issues
	// SHUTDOWN, after the +OK reply is flushed. The owner is expected to
	// call Shutdown and close the heap.
	OnShutdown func()
	// InfoSections contributes extra named sections to the INFO reply
	// (heap statistics, allocator shard counters, ...). A section whose
	// Name matches a builtin section (notably "persistence") is rendered
	// inside that builtin block instead of standalone, so an embedder can
	// extend INFO persistence with recovery statistics. Every name here is
	// advertised by Sections and must round-trip through INFO <name> (a
	// registry-generated test enforces this).
	InfoSections []InfoSection
	// SlowlogSlowerThan is the slow-log admission threshold, Redis's
	// slowlog-log-slower-than: executions taking at least this long are
	// recorded. Zero (the zero value) disables the slow log; negative
	// logs every command.
	SlowlogSlowerThan time.Duration
	// SlowlogMaxLen bounds the slow-log ring (default 128).
	SlowlogMaxLen int
	// LatencyThreshold is the LATENCY event-timeline admission threshold
	// for the "command" event, Redis's latency-monitor-threshold.
	// Zero disables command latency events; checkpoint, expiry-cycle and
	// embedder-recorded events are always kept.
	LatencyThreshold time.Duration
	// ActiveExpiryInterval, if positive, starts the active expiry cycle: a
	// goroutine that every interval moves each shard's expiry cursor over
	// the buckets marked as holding a stamp and reclaims the expired
	// records it finds, each under its key's stripe lock. It runs under the
	// same barrier as commands (execMu read side), so a SAVE checkpoint never
	// captures a half-done reclamation. Zero disables the cycle; reads still
	// apply lazy expiry, so correctness is unaffected — only space
	// reclamation is.
	ActiveExpiryInterval time.Duration
	// ActiveExpirySample caps how many expired keys one cycle reclaims per
	// shard (default 20, Redis-like), and 20 times it how many stamped
	// buckets the cycle looks at, bounding the barrier hold time.
	ActiveExpirySample int

	// ReplBacklogBytes enables replication with a backlog ring of that
	// capacity. Replication is on when this is positive, ReplicaOf is set,
	// or a backend's OpenCheckpoint is non-nil (backlog then defaults to
	// 1 MiB). The ring fills when the first replica connects: a primary
	// with a fresh stream ID whose every shard can serve a full resync
	// only counts its feed offset until its first full resync.
	ReplBacklogBytes int
	// ReplicaOf, if non-empty, starts the server as a replica of the given
	// primary address ("host:port", or a unix socket path containing "/").
	// The heap must already hold the primary's bootstrapped image (see
	// repl.BootstrapImage); the server resumes the feed at ReplOffset.
	ReplicaOf string
	// ReplID and ReplOffset seed the replication stream position, normally
	// from the heap image's header (pmem.Region.ReplMeta). A zero ReplID on
	// a primary mints a fresh random stream ID.
	ReplID     uint64
	ReplOffset uint64
	// OnFullResyncNeeded, if non-nil, is called when the replication link
	// needs a full resync (the primary's backlog no longer covers our
	// offset, or streams diverged). The link is stopped when it fires; the
	// embedder is expected to shut down and re-bootstrap from the primary.
	OnFullResyncNeeded func()
}

// ErrServerClosed is returned by Serve after Shutdown or Abort.
var ErrServerClosed = errors.New("server: closed")

// Server serves the RESP2 subset over a kvstore. One goroutine per
// connection; pipelined commands are answered in order with batched writes.
// The keyspace lives on one or more shards (see shard.go); every stored
// field that used to be singular — allocator, store, checkpoint barrier,
// stripe locks — is per shard.
type Server struct {
	cfg Config

	// shards are the keyspace partitions, routed by hash slot; locksAll
	// aliases their lock blocks in shard order for the cross-shard
	// acquisition helpers (FLUSHALL, a checkpoint group's fence).
	shards   []*shard
	locksAll []*shardlock.Locks

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*drainState
	handles   [][]alloc.Handle // pool of per-shard handle vectors: bounds handle count by peak concurrency
	closed    bool

	wg   sync.WaitGroup
	sem  chan struct{} // MaxConns slots (nil = unlimited)
	once sync.Once     // OnShutdown

	stopExpiry chan struct{}  // closed on Shutdown/Abort (nil: cycle off)
	expiryWG   sync.WaitGroup // joins the expiry goroutine

	start        time.Time
	accepted     atomic.Uint64
	commands     obs.Counter // bumped per command by every connection
	expiryCycles atomic.Uint64

	// Observability state (internal/obs): the slow-command ring, the named
	// latency-event timeline, and the thresholds invoke compares against.
	// slowNs/latNs are precomputed to int64 nanoseconds with MaxInt64 as
	// the "disabled" sentinel so the hot path pays one comparison each.
	slow   *obs.SlowLog
	events *obs.Events
	slowNs int64
	latNs  int64

	// saveMu serializes SAVEs (shard.go); a full resync holds it from its
	// SAVE until it has opened the images that SAVE wrote.
	saveMu sync.Mutex

	// Checkpoint and expiry phase telemetry: monotonically counted and
	// last-duration words, surfaced by INFO persistence and /metrics.
	saves         atomic.Uint64
	saveErrs      atomic.Uint64
	lastSaveUnix  atomic.Int64
	saveQuiesceNs atomic.Int64 // last checkpoint's barrier-acquire wait
	saveTotalNs   atomic.Int64 // last checkpoint end to end
	saveFenceNs   atomic.Int64 // last online checkpoint's cut-over fence
	expiryLastNs  atomic.Int64 // last expiry cycle duration

	// Online-checkpoint copy telemetry: cumulative line counts across all
	// online SAVEs (copied = streamed clean, recopied = barrier-reported
	// dirty and copied again) plus the last run's fence-delta size and
	// round count. The copied:recopied ratio is the online snapshot's
	// efficiency measure — how much the write barrier cost beyond one
	// sequential pass.
	saveLines         atomic.Uint64
	saveRecopied      atomic.Uint64
	saveFenceRecopied atomic.Uint64
	saveRounds        atomic.Int64

	unitsUndone atomic.Uint64 // units rolled back at start (journal.go)

	// cmds is the registry bound to this server: each table entry with its
	// own counters, a write command's handler wrapped in the replication
	// tap when replicating. Built once in New; read-only afterwards.
	cmds map[string]*boundCmd

	// repl is the replication state (feed, senders, link); nil when
	// replication is disabled. See repl.go.
	repl *replState

	// stats is the stat table INFO and /metrics walk: the builtin sections
	// with the embedder's spliced in. See stats.go.
	stats obs.Table
}

// New creates a server over one open store with no checkpoint: SAVE answers
// an error. The allocator must be the one the store was opened on; the
// server draws per-connection handles from it. NewSharded (shard.go) takes
// backends that can checkpoint, and more than one of them.
func New(a alloc.Allocator, st *kvstore.Store, cfg Config) *Server {
	return NewSharded([]ShardBackend{{Alloc: a, Store: st}}, cfg)
}

// newServer builds the shard-independent parts; NewSharded attaches the
// shards and then calls finishInit.
func newServer(cfg Config) *Server {
	return &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*drainState),
		start:     time.Now(),
		slow:      obs.NewSlowLog(cfg.SlowlogMaxLen),
		events:    obs.NewEvents(),
		slowNs:    thresholdNs(cfg.SlowlogSlowerThan),
		latNs:     thresholdNs(cfg.LatencyThreshold),
	}
}

// finishInit wires replication, binds the command registry, and starts the
// background cycles, after the shards are in place.
func (s *Server) finishInit() {
	cfg := s.cfg
	replWanted := cfg.ReplBacklogBytes > 0 || cfg.ReplicaOf != ""
	for _, sh := range s.shards {
		if sh.be.OpenCheckpoint != nil {
			replWanted = true
		}
	}
	if replWanted {
		s.repl = newReplState(s)
	}
	s.bindCommands()
	s.stats = s.statTable()
	if cfg.MaxConns > 0 {
		s.sem = make(chan struct{}, cfg.MaxConns)
	}
	if cfg.ActiveExpiryInterval > 0 {
		s.stopExpiry = make(chan struct{})
		s.expiryWG.Add(1)
		go s.expiryLoop()
	}
	if s.repl != nil && cfg.ReplicaOf != "" {
		s.repl.startLink(cfg.ReplicaOf)
	}
}

// expiryLoop is the active expiry cycle: every interval it reclaims up to
// ActiveExpirySample expired records per shard. Each shard's round runs
// under that shard's checkpoint barrier read side — concurrent with ordinary
// commands, quiesced by that shard's SAVE fence only — so checkpoint images
// never contain a torn reclamation, other shards' fences never stall the
// cycle, and the cycle's frees stop before Shutdown/Abort return (no
// goroutine touches any heap afterwards).
func (s *Server) expiryLoop() {
	defer s.expiryWG.Done()
	sample := s.cfg.ActiveExpirySample
	if sample <= 0 {
		sample = 20
	}
	hds := make([]alloc.Handle, len(s.shards))
	for i, sh := range s.shards {
		hds[i] = sh.a.NewHandle()
	}
	t := time.NewTicker(s.cfg.ActiveExpiryInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopExpiry:
			return
		case <-t.C:
			// A replica never reclaims on its own: the primary runs the only
			// expiry authority and propagates each reclamation as a DEL, so
			// replicas cannot diverge by sampling different keys. Lazy reads
			// on a replica see through expired deadlines without mutating.
			if s.repl != nil && s.repl.replica.Load() {
				continue
			}
			t0 := time.Now()
			for i, sh := range s.shards {
				s.reclaimUnderBarrier(sh, hds[i], sample)
			}
			d := time.Since(t0)
			s.expiryCycles.Add(1)
			s.expiryLastNs.Store(int64(d))
			s.events.Record("expiry-cycle", t0, d)
		}
	}
}

// reclaimUnderBarrier runs one shard's reclamation round under that shard's
// checkpoint barrier read side, releasing it via defer so a panicking
// reclaim (a corrupt free chain, say) cannot wedge SAVE behind a dead
// expiry goroutine. The round looks at no more than 20 × sample buckets
// marked as holding a stamp — Redis's activeExpireCycle bound — so a map
// full of stamps not yet due cannot hold the barrier for a whole lap (a
// SAVE fence waits for it). It returns how many it looked at.
func (s *Server) reclaimUnderBarrier(sh *shard, hd alloc.Handle, sample int) (visited int) {
	sh.locks.Exec.RLock()
	defer sh.locks.Exec.RUnlock()
	keys, visited := sh.st.ExpiredCandidates(sample, 20*sample)
	for _, key := range keys {
		s.reclaim(sh, hd, key)
	}
	return visited
}

// reclaim reclaims one expired candidate under its stripe lock, as a client
// DEL would run, and — when replicating and the key actually died (the
// deadline may have moved since the sweep found it) — appends the equivalent
// DEL to the feed, in the order it hit the store.
func (s *Server) reclaim(sh *shard, hd alloc.Handle, key []byte) {
	mu := &sh.locks.Stripes[s.stripeOf(key)]
	mu.Lock()
	defer mu.Unlock()
	if sh.st.ReclaimIfExpired(hd, key) && s.repl != nil {
		s.repl.feed.Append([][]byte{[]byte("DEL"), key})
		sh.replWrites.Add(1)
	}
}

// Serve accepts connections on l until the server shuts down. It always
// closes l; after Shutdown or Abort it returns ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	if !s.addListener(l) {
		l.Close()
		return ErrServerClosed
	}
	defer func() {
		s.removeListener(l)
		l.Close()
	}()

	var backoff time.Duration
	for {
		c, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			// Transient accept failures (EMFILE under a connection
			// burst, say) back off and retry rather than killing the
			// listener, like net/http.
			if isTemporary(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// addListener registers l for Shutdown/Abort to close; it reports false
// (without registering) when the server is already closed.
func (s *Server) addListener(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) removeListener(l net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, l)
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// isTemporary reports whether an accept error is worth retrying. The
// net.Error.Temporary contract is deprecated for general errors but remains
// exactly right for accept(2) resource-exhaustion failures.
func isTemporary(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		//lint:ignore SA1019 accept-loop retry is Temporary's surviving use
		return ne.Temporary()
	}
	return false
}

// getHandles takes a per-shard allocation handle vector from the pool,
// minting one if empty. Minting happens outside the server mutex: NewHandle
// may take allocator locks of its own, and the pool pop is the only part
// that needs s.mu.
func (s *Server) getHandles() []alloc.Handle {
	if hds, ok := s.pooledHandles(); ok {
		return hds
	}
	hds := make([]alloc.Handle, len(s.shards))
	for i, sh := range s.shards {
		hds[i] = sh.a.NewHandle()
	}
	return hds
}

func (s *Server) pooledHandles() ([]alloc.Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.handles); n > 0 {
		hds := s.handles[n-1]
		s.handles = s.handles[:n-1]
		return hds, true
	}
	return nil, false
}

func (s *Server) putHandles(hds []alloc.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.handles = append(s.handles, hds)
	}
}

// handleConn runs one connection's read-execute-reply loop.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	ds := s.trackConn(c)
	if ds == nil {
		c.Close()
		return
	}
	defer func() {
		s.untrackConn(c)
		c.Close()
	}()

	hds := s.getHandles()
	defer s.putHandles(hds)

	// Handler panics are deliberately NOT recovered here: a panic that
	// escapes dispatch may originate below the server — an allocator
	// double-free or corrupt free chain fires inside dstruct/kvstore
	// critical sections whose internal mutexes are not defer-released, and
	// this connection's pooled alloc.Handle may hold a torn thread-local
	// cache — so "contain and keep serving" would trade a clean fail-stop
	// for a wedged or silently corrupting process. The heap is
	// crash-consistent at every instant, so process death is the designed
	// containment: restart runs Open→Recover and resumes. Dispatch still
	// releases the routed shard's stripe locks and barrier read side via
	// defer during unwinding, so a panic recovered *above* dispatch (an
	// embedder wrapping Serve, a test or fuzz harness driving dispatch
	// directly) observes no leaked server locks.
	r := newRespReader(c)
	w := newRespWriter(c)
	// One Ctx and one transaction state per connection, reused across
	// dispatches so the steady-state pipeline allocates nothing.
	ctx := &Ctx{s: s, hds: hds, hd: hds[0], w: w, cs: &connState{}}
	for {
		if !r.buffered() && !ds.await(c, r) {
			return
		}
		args, err := r.ReadCommand()
		if err != nil {
			var pe resp.Error
			if errors.As(err, &pe) {
				w.errorf("%s", string(pe))
				w.flush()
			}
			return
		}
		quit := false
		if len(args) > 0 { // an empty command runs nothing, but may end a batch
			s.commands.Add(1)
			quit = s.dispatch(ctx, args)
		}
		if ctx.hijack != nil {
			// PSYNC: hand the raw connection to the replication sender. The
			// conn stays tracked (Shutdown's force-close still reaches it)
			// and the deferred untrack/Close run when the stream ends.
			h := ctx.hijack
			ctx.hijack = nil
			if err := w.flush(); err != nil {
				return
			}
			h(c)
			return
		}
		// Pipelining: only flush when the input is drained, so a burst of
		// commands gets one batched reply write.
		if quit || !r.buffered() {
			if err := w.flush(); err != nil {
				return
			}
		}
		if quit {
			s.once.Do(func() {
				if s.cfg.OnShutdown != nil {
					// The owner's shutdown path takes execMu (via Save) and
					// waits for connections; run it outside both.
					go s.cfg.OnShutdown()
				}
			})
			return
		}
	}
}

// trackConn registers a live connection for Shutdown to drain; it returns
// nil (without registering) when the server is already closed.
func (s *Server) trackConn(c net.Conn) *drainState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.conns[c] = &drainState{}
	return s.conns[c]
}

// drainState tells a graceful stop whether a connection's handler waits
// between commands with nothing buffered (idle), and tells the handler the
// drain deadline, zero until the stop begins; mu orders the two.
type drainState struct {
	mu      sync.Mutex
	idle    bool
	drainBy time.Time
}

// await waits for the next command with nothing buffered and reports whether
// there is one. Once a graceful stop has begun, a connection between commands
// closes at once unless its client had already sent more, which is served
// until the drain deadline.
func (ds *drainState) await(c net.Conn, r *respReader) bool {
	by := ds.waiting(true)
	if by.IsZero() {
		_, err := r.d.Peek()
		if by = ds.waiting(false); by.IsZero() {
			return err == nil
		}
	}
	if !r.buffered() && !unread(c) {
		return false
	}
	c.SetReadDeadline(by) // stop may have moved it to now
	_, err := r.d.Peek()
	return err == nil
}

// waiting marks whether the handler is about to wait between commands (only
// before a stop) and returns the drain deadline.
func (ds *drainState) waiting(idle bool) time.Time {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.idle = idle && ds.drainBy.IsZero()
	return ds.drainBy
}

// stop arms the connection's drain deadline, cutting a wait between commands
// short.
func (ds *drainState) stop(c net.Conn, deadline time.Time) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.drainBy = deadline
	if ds.idle {
		deadline = time.Now()
	}
	c.SetReadDeadline(deadline)
}

// unread reports, without waiting, whether the client has sent bytes not yet
// read (a non-blocking peek); a connection that is not a socket is taken to
// have some.
func unread(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return true
	}
	n := 0
	if raw, err := sc.SyscallConn(); err == nil {
		raw.Control(func(fd uintptr) {
			n, _, _ = syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		})
	}
	return n > 0
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// deadlineFrom converts a relative TTL (in seconds when seconds is true,
// milliseconds otherwise) into an absolute unix-millisecond deadline,
// saturating instead of overflowing on hostile magnitudes. The result is
// never 0 — that is the "immortal" sentinel — so a non-positive TTL maps to
// a deadline firmly in the past (immediately expired, Redis-observable as
// the key being gone).
func deadlineFrom(now, d int64, seconds bool) int64 {
	if seconds {
		const maxSec = math.MaxInt64 / 1000
		if d > maxSec {
			d = maxSec
		} else if d < -maxSec {
			d = -maxSec
		}
		d *= 1000
	}
	at := now + d
	if d > 0 && at < now {
		at = math.MaxInt64
	}
	if at <= 0 {
		at = 1
	}
	return at
}

// recordSlow is invoke's over-threshold slow path: append to the slow log
// ring (stamped when the command finished) and/or the "command"
// latency-event timeline (stamped when it started, like every other event).
// ctx.args is copied (and truncated) by SlowLog.Add before dispatch's scratch
// reuse can touch it.
func (s *Server) recordSlow(args [][]byte, d time.Duration) {
	now := time.Now()
	if int64(d) >= s.slowNs {
		s.slow.Add(now.Unix(), d, args)
	}
	if int64(d) >= s.latNs {
		s.events.Record("command", now.Add(-d), d)
	}
}

// Events exposes the server's latency-event timeline so embedders can
// record their own named events (recovery phases, attach time) into the
// same LATENCY LATEST/HISTORY surface the builtin events use.
func (s *Server) Events() *obs.Events { return s.events }

// LatencySnapshot merges every command's histogram into one distribution —
// the server-wide command latency profile benchmarks report p50/p99 from.
func (s *Server) LatencySnapshot() obs.HistSnapshot {
	var total obs.HistSnapshot
	for _, bc := range s.cmds {
		snap := bc.stats.hist.Snapshot()
		total.Merge(&snap)
	}
	return total
}

// Shutdown gracefully drains the server: listeners close immediately, each
// connection's in-flight commands — everything its client sent before the
// stop — are answered, and a connection closes once it is idle between
// commands, or when its read side stays idle past the deadline. Connections
// still open after 2×timeout are force-closed. Safe to call more than once.
func (s *Server) Shutdown(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	s.beginClose(deadline, true)
	// Replication teardown runs outside beginClose (which holds s.mu): the
	// feed closes, in-flight PSYNC streams abort at an entry boundary with a
	// clean error line, and the replica link stops applying.
	if s.repl != nil {
		s.repl.close()
	}
	s.expiryWG.Wait()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(2 * timeout):
		s.closeConns()
		<-done
		return errors.New("server: connections force-closed after drain timeout")
	}
}

// Abort hard-stops the server with no drain — the in-process stand-in for
// kill -9 in crash tests. In-flight commands may go unanswered (and their
// effects may or may not have reached the store, exactly like a real crash);
// no goroutine touches the heap after Abort returns.
func (s *Server) Abort() {
	s.beginClose(time.Time{}, false)
	if s.repl != nil {
		s.repl.close()
	}
	s.expiryWG.Wait()
	s.closeConns()
	s.wg.Wait()
}

// beginClose marks the server closed under the mutex: the expiry cycle is
// stopped, listeners close, and — when armConns is set (graceful Shutdown) —
// each open connection's read deadline is moved up to deadline, or to now
// for one idle between commands, which then closes unless its client had
// already sent more (drainState). A connection mid-command still gets
// its replies written first.
func (s *Server) beginClose(deadline time.Time, armConns bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.stopExpiry != nil {
		close(s.stopExpiry)
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	if armConns {
		for c, ds := range s.conns {
			ds.stop(c, deadline)
		}
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}
