package server

// Replication: the server side of internal/repl. A primary taps every
// successful write-flagged command into a repl.Feed (the tap runs
// while the command's stripe locks are still held, so feed order equals
// execution order for conflicting keys; a fresh primary's feed only counts
// until its first full resync, see newReplState and retain), serves PSYNC by
// streaming a checkpoint image followed by the live feed, and answers WAIT
// from the senders' acknowledged offsets. A replica runs a link goroutine that
// applies the feed through the normal dispatch pipeline (never touching
// storage directly — the ralloc-vet replpurity rule holds internal/repl to
// the same boundary) and refuses client writes with -READONLY until
// REPLICAOF NO ONE promotes it.
//
// Determinism argument (why byte-equal feeds imply equal stores): every
// propagated entry is either the executed command verbatim or its
// clock-free rewrite (EXPIRE/PEXPIRE → PEXPIREAT, SETEX/PSETEX → PSETEXAT),
// so replaying the entries in feed order against the same starting image is
// a pure function of the bytes — no replica-side clock reads, no randomness.
// Non-error "failures" (SETNX on an existing key, EXPIRE on a missing key)
// propagate too and re-fail identically by induction on the shared prefix.

import (
	"bufio"
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster/shardlock"
	"repro/internal/repl"
	"repro/internal/resp"
)

// CheckpointImage is an open checkpoint stream handed to a full resync: the
// image bytes plus the replication position stamped in the image header.
// The server streams R to the replica and starts its feed cursor at
// ReplOffset; Close is called when the stream finishes either way.
type CheckpointImage struct {
	R          io.ReadCloser
	ReplID     uint64
	ReplOffset uint64
}

// replState is the server's replication half: the feed, the connected
// sender set, and the role bit.
type replState struct {
	s    *Server
	feed *repl.Feed
	// counting: the feed still counts; the first full sync's retain clears
	// it. Guarded by s.saveMu.
	counting bool

	mu       sync.Mutex
	senders  map[*replSender]struct{}
	link     *replicaLink // non-nil while this server follows a primary
	upstream string       // the primary's address while a replica; "" after promotion
	closed   bool

	replica atomic.Bool

	fullSyncs    atomic.Uint64
	partialSyncs atomic.Uint64
	applied      atomic.Uint64
	applyErrs    atomic.Uint64
}

func newReplState(s *Server) *replState {
	capacity := s.cfg.ReplBacklogBytes
	if capacity <= 0 {
		capacity = 1 << 20
	}
	id := s.cfg.ReplID
	if id == 0 {
		id = randomReplID()
	}
	rs := &replState{s: s, senders: make(map[*replSender]struct{})}
	// A primary with a freshly minted stream ID that can serve full syncs
	// counts until its first one: only a FULLRESYNC hands out a position in
	// a new stream, so no reader can need a byte written before it. A
	// replica, a named stream (a clean restart's header) and a primary that
	// cannot full-sync (whose readers join at a position named out of band)
	// retain from the start.
	rs.counting = s.cfg.ReplicaOf == "" && s.cfg.ReplID == 0 && s.canFullSync()
	newFeed := repl.NewFeed
	if rs.counting {
		newFeed = repl.NewCountingFeed
	}
	rs.feed = newFeed(capacity, id, s.cfg.ReplOffset)
	if s.cfg.ReplicaOf != "" {
		rs.replica.Store(true)
		rs.upstream = s.cfg.ReplicaOf
	}
	return rs
}

// randomReplID mints a fresh nonzero stream ID (fresh primaries and
// promotions; zero is the "unset" image-header value).
func randomReplID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

// tap wraps a write command's handler (bindCommands), directly, so it
// observes exactly the handler's success or error. It runs with the
// command's stripe locks held. Error replies propagate nothing; successful
// executions append the executed args — or the handler's clock-free rewrite
// (ctx.prop) — as one feed entry. Entries applied from the replication link
// are re-appended verbatim by the link itself (offset parity), so the tap
// backs off when ctx.fromLink.
func (rs *replState) tap(next Handler) Handler {
	return func(ctx *Ctx) {
		ctx.prop = nil
		e0 := ctx.w.errs
		next(ctx)
		if ctx.fromLink || ctx.w.errs != e0 {
			return
		}
		args := ctx.args
		if ctx.prop != nil {
			args = ctx.prop
			ctx.prop = nil
		}
		rs.feed.Append(args)
		// Per-shard feed attribution. The entry carries no shard id on the
		// wire — the id is derivable on both ends from the key — this
		// counter just surfaces the write balance in INFO cluster/metrics.
		if ctx.sh != nil {
			ctx.sh.replWrites.Add(1)
		}
	}
}

// isClosed reports whether replication teardown has begun.
func (rs *replState) isClosed() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.closed
}

// close tears replication down: the feed closes (draining senders see
// ErrClosed), every in-flight sender is aborted at its next entry or image
// chunk boundary with a clean "-ERR" line, and the replica link stops.
// Called from Shutdown and Abort after beginClose, outside s.mu.
func (rs *replState) close() {
	link, senders, already := rs.detach()
	if already {
		return
	}
	rs.feed.Close()
	for _, sd := range senders {
		sd.abort("server is shutting down")
	}
	if link != nil {
		link.stopAndWait()
	}
}

// detach marks the state closed under the lock and hands back everything
// whose teardown blocks (sender aborts, the link join) so close can run it
// lock-free.
func (rs *replState) detach() (link *replicaLink, senders []*replSender, already bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return nil, nil, true
	}
	rs.closed = true
	link, rs.link = rs.link, nil
	for sd := range rs.senders {
		senders = append(senders, sd)
	}
	return link, senders, false
}

// promote turns a replica into a writable primary: the link is stopped
// synchronously (no entry can apply after promotion), the role bit flips,
// and the feed gets a fresh stream ID so replicas of the old stream cannot
// silently partial-resync across the divergence point.
func (rs *replState) promote() {
	if link := rs.takeLink(); link != nil {
		link.stopAndWait()
	}
	if rs.replica.CompareAndSwap(true, false) {
		rs.feed.SetID(randomReplID())
	}
}

// takeLink detaches the upstream link under the lock; the caller joins it
// outside (the join blocks on the apply loop).
func (rs *replState) takeLink() *replicaLink {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	link := rs.link
	rs.link = nil
	rs.upstream = ""
	return link
}

func (rs *replState) addSender(sd *replSender) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return false
	}
	rs.senders[sd] = struct{}{}
	return true
}

func (rs *replState) removeSender(sd *replSender) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	delete(rs.senders, sd)
}

// ackedAtLeast counts connected senders whose replica has acknowledged
// offset target or beyond — WAIT's condition.
func (rs *replState) ackedAtLeast(target uint64) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for sd := range rs.senders {
		if sd.acked.Load() >= target {
			n++
		}
	}
	return n
}

// replSender is one PSYNC stream being served: the hijacked connection, the
// feed cursor, and the replica's acknowledged offset (updated by the ACK
// reader goroutine, read by WAIT).
type replSender struct {
	conn     net.Conn
	cur      atomic.Pointer[repl.Cursor]
	acked    atomic.Uint64
	sent     atomic.Uint64
	abortMsg atomic.Pointer[string]
}

// abort requests a clean stream abort: the image copier checks the reason
// between chunks, and a cursor blocked on the feed wakes with ErrAborted.
func (sd *replSender) abort(msg string) {
	sd.abortMsg.CompareAndSwap(nil, &msg)
	if c := sd.cur.Load(); c != nil {
		c.Abort()
	}
}

func (sd *replSender) abortReason() string {
	if p := sd.abortMsg.Load(); p != nil {
		return *p
	}
	return ""
}

// servePSync runs one replication stream on a hijacked connection: the
// handshake (CONTINUE from the backlog when the requested position is
// covered under the same stream ID, FULLRESYNC with a fresh checkpoint image
// otherwise), then the live feed in whole-entry batches. It returns when the
// replica disconnects, falls behind the backlog, or the server shuts down —
// always leaving the wire at an entry boundary, with a parseable "-ERR" line
// when the cut was server-initiated.
func (rs *replState) servePSync(conn net.Conn, id, off uint64, wantFull bool) {
	sd := &replSender{conn: conn}
	if !rs.addSender(sd) {
		repl.WriteAbort(conn, "server is shutting down")
		return
	}
	defer rs.removeSender(sd)
	bw := bufio.NewWriterSize(conn, 64<<10)
	// abort ends the stream with a parseable refusal (legal at every entry
	// boundary, which is the only place this function stops).
	abort := func(msg string) {
		repl.WriteAbort(bw, msg)
		bw.Flush()
	}

	var cur *repl.Cursor
	if !wantFull && id == rs.feed.ID() {
		if c, ok := rs.feed.CursorAt(off); ok {
			if err := repl.WriteContinue(bw, off); err != nil {
				return
			}
			rs.partialSyncs.Add(1)
			cur = c
		}
	}
	if cur == nil {
		c, err := rs.fullSync(bw, sd)
		if errors.Is(err, repl.ErrStreamAbort) { // abort line already on the wire
			bw.Flush()
			return
		} else if err != nil {
			abort("full resync failed: " + err.Error())
			return
		}
		cur = c
	}
	sd.cur.Store(cur)
	// An abort that raced the handshake saw a nil cursor; honor it now.
	if msg := sd.abortReason(); msg != "" {
		abort(msg)
		return
	}
	go rs.readAcks(sd)

	// The handshake (CONTINUE, or FULLRESYNC's image tail) must reach the
	// wire before blocking on feed growth: a replica that is already caught
	// up would otherwise wait on a buffered handshake while we wait on it.
	if err := bw.Flush(); err != nil {
		return
	}

	for {
		p, err := cur.NextEntries(256 << 10)
		switch {
		case errors.Is(err, repl.ErrClosed):
			abort("server is shutting down")
		case errors.Is(err, repl.ErrFellBehind):
			abort("replica fell behind the backlog; reconnect for a full resync")
		case errors.Is(err, repl.ErrAborted):
			abort(cmp.Or(sd.abortReason(), "stream aborted"))
		}
		if err != nil {
			return
		}
		if _, err := bw.Write(p); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		sd.sent.Store(cur.Offset())
	}
}

// fullSync produces and streams a bootstrap image per shard: pin the backlog
// (so the bytes after the images' cut-over offset are still retained when
// they finish streaming), checkpoint — with replication on, Save cuts every
// shard as one group, stamping ONE (id, offset) into every shard's image —
// and open the N images, all under the server's saveMu so no other SAVE can
// publish between this one and the opens; then stream the images
// sequentially with abort checks at chunk boundaries, and return a cursor at
// the common stamped offset. The handshake advertises the shard count, so a
// replica with a different -cluster-shards fails the bootstrap loudly
// instead of mis-routing keys.
func (rs *replState) fullSync(bw *bufio.Writer, sd *replSender) (*repl.Cursor, error) {
	if !rs.s.canFullSync() {
		return nil, errors.New("no checkpoint source configured (volatile heap)")
	}
	rs.feed.Pin()
	defer rs.feed.Unpin()
	imgs, err := rs.openSaved()
	defer func() {
		for _, img := range imgs {
			img.R.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	off := imgs[0].ReplOffset
	for i, img := range imgs[1:] {
		if img.ReplOffset != off {
			// Cannot happen after one group's cut; a mismatch means the
			// embedder wired per-shard checkpoint funcs that ignore the fence.
			return nil, fmt.Errorf("shard %d image offset %d diverges from shard 0's %d", i+1, img.ReplOffset, off)
		}
	}
	cur, ok := rs.feed.CursorAt(off)
	if !ok {
		return nil, errors.New("checkpoint image offset outside the backlog")
	}
	if err := repl.WriteFullResync(bw, rs.feed.ID(), off, len(imgs)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, img := range imgs {
		if _, err := repl.CopyImageChunksAbort(bw, img.R, sd.abortReason); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	rs.s.events.Record("repl-full-sync", t0, time.Since(t0))
	rs.fullSyncs.Add(1)
	return cur, nil
}

// canFullSync reports whether every shard can open a checkpoint image for a
// full resync to stream.
func (s *Server) canFullSync() bool {
	for _, sh := range s.shards {
		if sh.be.OpenCheckpoint == nil {
			return false
		}
	}
	return true
}

// openSaved runs a SAVE and opens every shard's image it wrote, holding
// saveMu across both so the images are the ones this SAVE published. The
// first one switches a counting feed to retaining before its SAVE, so the
// offset the SAVE's fence stamps is at or past the backlog's start, and the
// caller's pin keeps it covered.
func (rs *replState) openSaved() ([]*CheckpointImage, error) {
	rs.s.saveMu.Lock()
	defer rs.s.saveMu.Unlock()
	rs.retain()
	if err := rs.s.save(); err != nil {
		return nil, err
	}
	imgs := make([]*CheckpointImage, 0, len(rs.s.shards))
	for _, sh := range rs.s.shards {
		img, err := sh.be.OpenCheckpoint()
		if err != nil {
			return imgs, err
		}
		imgs = append(imgs, img)
	}
	return imgs, nil
}

// retain switches the counting feed to retaining at a cut: with every
// shard's barrier write side held, every write has either counted or not yet
// reached the tap, so none is half counted and the backlog starts exactly at
// the counted end. Under saveMu; only the first call does anything.
func (rs *replState) retain() {
	if !rs.counting {
		return
	}
	shardlock.ExecLockAll(rs.s.locksAll)
	defer shardlock.ExecUnlockAll(rs.s.locksAll)
	rs.feed.Retain()
	rs.counting = false
}

// readAcks consumes the replica→primary side of a PSYNC connection:
// REPLCONF ACK <offset> entries. A read error (replica died) aborts the
// sender so a stream blocked waiting for feed growth notices promptly
// instead of holding a cursor forever.
func (rs *replState) readAcks(sd *replSender) {
	d := resp.NewDecoder(resp.NewReader(sd.conn))
	for {
		args, _, err := repl.ReadEntryFrom(d)
		if err != nil {
			sd.abort("replica connection lost")
			return
		}
		if len(args) == 3 && strings.EqualFold(string(args[0]), "REPLCONF") && strings.EqualFold(string(args[1]), "ACK") {
			if n, err := strconv.ParseUint(string(args[2]), 10, 64); err == nil {
				sd.acked.Store(n)
			}
		}
	}
}

// errFullResyncNeeded: the primary answered our partial-resync request with
// FULLRESYNC. A live heap cannot absorb an image, so the link reports up
// (OnFullResyncNeeded) and stops; the embedder re-bootstraps.
var errFullResyncNeeded = errors.New("server: primary demands a full resync")

// replicaLink is the replica's connection to its primary: dial, request a
// partial resync from the feed's applied offset, apply entries through
// dispatch, acknowledge. Reconnects with backoff on transient failures.
type replicaLink struct {
	rs   *replState
	addr string
	hds  []alloc.Handle // one per shard: applied entries route like client writes

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu   sync.Mutex // guards conn (for close/ack writes) and up
	conn net.Conn
	up   bool
}

func (rs *replState) startLink(addr string) {
	l := &replicaLink{rs: rs, addr: addr, stop: make(chan struct{})}
	for _, sh := range rs.s.shards {
		l.hds = append(l.hds, sh.a.NewHandle())
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.link = l
	l.wg.Add(1)
	go l.run()
}

func (l *replicaLink) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// stopAndWait stops the link synchronously: after it returns, no further
// entry will be applied (promotion and shutdown both depend on that).
func (l *replicaLink) stopAndWait() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.closeConn()
	l.wg.Wait()
}

func (l *replicaLink) closeConn() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
	}
}

// setConn installs (or clears) the live connection under the lock; it
// refuses — closing the conn — when the link is already stopped, so a dial
// racing stopAndWait cannot leak a connection that outlives the link.
func (l *replicaLink) setConn(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if conn != nil && l.stopped() {
		return false
	}
	l.conn = conn
	l.up = conn != nil
	return true
}

func (l *replicaLink) isUp() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up
}

func (l *replicaLink) run() {
	defer l.wg.Done()
	// The link's Ctx applies entries through the normal dispatch pipeline
	// with replies discarded: the primary already answered the client.
	ctx := &Ctx{s: l.rs.s, hds: l.hds, hd: l.hds[0], w: newRespWriter(io.Discard), fromLink: true}
	backoff := 50 * time.Millisecond
	for !l.stopped() {
		err := l.connectAndApply(ctx, &backoff)
		l.setConn(nil)
		if errors.Is(err, errFullResyncNeeded) {
			if fn := l.rs.s.cfg.OnFullResyncNeeded; fn != nil {
				// Not a goroutine of its own: run() is done either way, and
				// the callback must not apply-race a link that's still live.
				fn()
			}
			return
		}
		select {
		case <-l.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// connectAndApply runs one link session: dial, PSYNC from the applied
// offset, then the apply loop until the stream breaks.
func (l *replicaLink) connectAndApply(ctx *Ctx, backoff *time.Duration) error {
	conn, err := repl.Dial(l.addr)
	if err != nil {
		return err
	}
	if !l.setConn(conn) {
		conn.Close()
		return errors.New("link stopped")
	}
	feed := l.rs.feed
	if _, err := conn.Write(repl.PSyncRequest(feed.ID(), feed.Offset())); err != nil {
		return err
	}
	br := resp.NewReader(conn)
	h, err := repl.ReadHandshake(br)
	if err != nil {
		return err
	}
	if h.Full {
		return errFullResyncNeeded
	}
	if h.Offset != feed.Offset() {
		return fmt.Errorf("server: CONTINUE at %d, applied offset is %d", h.Offset, feed.Offset())
	}
	*backoff = 50 * time.Millisecond // handshake succeeded: reset the retry clock

	// Periodic acks bound the primary's WAIT staleness even when the feed
	// idles; the post-drain ack below keeps the common case prompt.
	ackDone := make(chan struct{})
	defer close(ackDone)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ackDone:
				return
			case <-l.stop:
				return
			case <-t.C:
				l.sendAck(conn)
			}
		}
	}()

	d := resp.NewDecoder(br)
	for {
		args, raw, err := repl.ReadEntryFrom(d)
		if err != nil {
			return err
		}
		l.apply(ctx, args, raw)
		if br.Buffered() == 0 {
			l.sendAck(conn)
		}
	}
}

// apply executes one feed entry through dispatch and force-advances the
// replica's feed with the exact wire bytes — even when the entry failed to
// apply (counted in apply_errors), because the offset accounting must stay
// byte-identical to the primary's or every future partial resync is off by
// the failed entry's length. Only write-flagged commands are accepted; a
// corrupt or hostile stream cannot make the replica execute SHUTDOWN or
// FLUSH admin paths it never propagates.
func (l *replicaLink) apply(ctx *Ctx, args [][]byte, raw []byte) {
	rs := l.rs
	ok := false
	if bc := rs.s.lookup(ctx, args[0]); bc != nil && bc.cmd.Flags&FlagWrite != 0 {
		e0 := ctx.w.errs
		rs.s.dispatch(ctx, args)
		ok = ctx.w.errs == e0
	}
	if !ok {
		rs.applyErrs.Add(1)
	}
	rs.feed.AppendRaw(raw)
	rs.applied.Add(1)
}

// sendAck reports the applied offset upstream. Best-effort: a write error
// here also breaks the read loop, which owns reconnection.
func (l *replicaLink) sendAck(conn net.Conn) {
	off := l.rs.feed.Offset()
	entry := repl.AppendEntry(nil, [][]byte{
		[]byte("REPLCONF"), []byte("ACK"), []byte(strconv.FormatUint(off, 10)),
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	conn.Write(entry)
}

// ---- command handlers ----

// cmdReplicaOf serves REPLICAOF. Only promotion (NO ONE) works on a live
// server: pointing a running heap at a (new) primary would require
// discarding it for the primary's image, which is a restart-time operation.
func cmdReplicaOf(ctx *Ctx) {
	rs := ctx.s.repl
	if rs == nil {
		ctx.w.errorf("replication not enabled")
		return
	}
	if strings.EqualFold(string(ctx.args[1]), "no") && strings.EqualFold(string(ctx.args[2]), "one") {
		// REPLICAOF is keyless, so dispatch gave it no barrier: joining the
		// link goroutine (whose apply loop takes shard barriers of its own)
		// cannot deadlock against a pending SAVE fence.
		rs.promote()
		ctx.w.simple("OK")
		return
	}
	ctx.w.errorf("only REPLICAOF NO ONE is supported at runtime; following a primary requires a restart with -replicaof (the heap must be re-bootstrapped from its checkpoint)")
}

// cmdReplConf accepts REPLCONF capability chatter with +OK. ACKs on a live
// replication stream never come through dispatch — they are parsed by the
// sender's ACK reader after PSYNC hijacks the connection.
func cmdReplConf(ctx *Ctx) {
	ctx.w.simple("OK")
}

// cmdPSync validates the handshake and hijacks the connection: the actual
// stream is served by servePSync after the dispatch barrier is released
// (a full resync runs Save, which needs the barrier's write side).
func cmdPSync(ctx *Ctx) {
	rs := ctx.s.repl
	if rs == nil {
		ctx.w.errorf("replication not enabled")
		return
	}
	if rs.replica.Load() {
		ctx.w.errorf("replica cannot serve PSYNC (chained replication is unsupported)")
		return
	}
	full := string(ctx.args[1]) == "?"
	var id uint64
	var err error
	if !full {
		if id, err = strconv.ParseUint(string(ctx.args[1]), 16, 64); err != nil {
			ctx.w.errorf("invalid replication ID")
			return
		}
	}
	off, err := strconv.ParseUint(string(ctx.args[2]), 10, 64)
	if err != nil {
		ctx.w.errorf("invalid replication offset")
		return
	}
	ctx.hijack = func(conn net.Conn) { rs.servePSync(conn, id, off, full) }
}

// cmdWait blocks until numreplicas connected replicas have acknowledged
// everything the feed holds right now, or the timeout (milliseconds; 0
// waits indefinitely) passes — replying with the count that acknowledged.
// WAIT is keyless and holds no barrier while blocking: a checkpoint fence
// never waits out a WAIT.
func cmdWait(ctx *Ctx) {
	num, err1 := strconv.Atoi(string(ctx.args[1]))
	tmo, err2 := strconv.ParseInt(string(ctx.args[2]), 10, 64)
	if err1 != nil || err2 != nil || num < 0 || tmo < 0 {
		ctx.w.errorf("value is not an integer or out of range")
		return
	}
	rs := ctx.s.repl
	if rs == nil {
		ctx.w.integer(0)
		return
	}
	target := rs.feed.Offset()
	var deadline time.Time
	if tmo > 0 {
		deadline = time.Now().Add(time.Duration(tmo) * time.Millisecond)
	}
	for {
		n := rs.ackedAtLeast(target)
		if n >= num || rs.isClosed() || (!deadline.IsZero() && time.Now().After(deadline)) {
			ctx.w.integer(int64(n))
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cmdPExpireAt sets an absolute unix-millisecond deadline — the clock-free
// form EXPIRE/PEXPIRE rewrite to for propagation, and a client-usable
// command in its own right. A deadline at or before zero is clamped to the
// "expired since forever" stamp (0 is the immortal sentinel).
func cmdPExpireAt(ctx *Ctx) {
	at, err := strconv.ParseInt(string(ctx.args[2]), 10, 64)
	if err != nil {
		ctx.w.errorf("value is not an integer or out of range")
		return
	}
	if at <= 0 {
		at = 1
	}
	if ctx.sh.st.Expire(ctx.args[1], at) {
		ctx.w.integer(1)
	} else {
		ctx.w.integer(0)
	}
}

// cmdPSetExAt is SETEX with an absolute unix-millisecond deadline — the
// clock-free propagation form of SETEX/PSETEX.
func cmdPSetExAt(ctx *Ctx) {
	at, err := strconv.ParseInt(string(ctx.args[2]), 10, 64)
	if err != nil {
		ctx.w.errorf("value is not an integer or out of range")
		return
	}
	if at <= 0 {
		at = 1
	}
	if !ctx.sh.st.SetBytesExpire(ctx.hd, ctx.args[1], ctx.args[3], at) {
		ctx.w.errorf("out of memory")
		return
	}
	ctx.w.simple("OK")
}

// ---- server integration ----

// ReplMeta returns the replication stream ID and the feed's current offset —
// what an embedder stamps into the heap image before a clean-shutdown save,
// so a restart resumes the stream where it stopped. (0, 0) when replication
// is disabled.
func (s *Server) ReplMeta() (id, off uint64) {
	if s.repl == nil {
		return 0, 0
	}
	return s.repl.feed.ID(), s.repl.feed.Offset()
}
