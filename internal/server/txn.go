package server

// MULTI/EXEC/DISCARD on top of the command registry. The design follows
// Redis: MULTI opens a per-connection queue; subsequent commands are
// validated against the table at queue time (unknown names and arity
// failures reply an error immediately and poison the queue, so EXEC aborts
// with -EXECABORT); EXEC runs the queue back-to-back and replies an array of
// the individual replies; errors *inside* EXEC do not abort the rest.
//
// Atomicity has three parts, the first two locks the registry makes uniform:
//
//   - EXEC acquires the union of the queued commands' key stripes (plus all
//     stripes if a FlagLockAll command is queued), sorted and deduplicated —
//     the same deadlock-ordered discipline as single multi-key commands — so
//     no concurrent writer observes or interleaves a half-applied queue.
//   - The whole EXEC runs under one read-side hold of its shard's checkpoint
//     barrier, so a SAVE image never holds a torn transaction.
//   - An EXEC of more than one write runs under its shard's undo journal
//     (journal.go), so a kill mid-EXEC restarts with the transaction wholly
//     absent (killdriver_test.go, journal_test.go) — unless it queues FLUSHALL.
//
// With more than one shard a transaction is additionally confined to one
// shard, enforced at queue time: the first keyed command fixes the
// transaction's shard, any later key routing elsewhere poisons the queue
// with -CROSSSLOT, and FlagLockAll commands (whole-keyspace, every shard)
// are refused outright. One shard's barrier plus its stripe union then give
// the same atomicity as before — and the confinement is what keeps EXEC off
// the cross-shard lock-ordering problem entirely (see shardlock's package
// comment).

// queuedCmd is one validated command awaiting EXEC.
type queuedCmd struct {
	bc   *boundCmd
	args [][]byte
}

// maxTxnQueue bounds one connection's MULTI queue: the RESP layer caps what
// a single command may allocate (resp.MaxArgs/resp.MaxBulkLen), and without a queue
// cap MULTI would let one connection accumulate unbounded retained commands
// anyway. Overflow poisons the transaction (EXECABORT), like the other
// queue-time rejections.
const maxTxnQueue = 4096

// maxTxnQueueBytes bounds the bytes one queue may retain. The command-count
// cap alone still lets a single connection pin maxTxnQueue full-size
// commands (each up to resp.MaxBulkLen) simultaneously — a huge amplification
// over the transient per-command allocation of normal dispatch — so
// admission is also metered in bytes. Each argument is charged
// txnArgOverhead on top of its payload: a variadic command with a million
// empty bulks retains ~24 bytes of slice header plus allocator rounding per
// argument, which payload-only metering would count as zero.
const (
	maxTxnQueueBytes = 256 << 20
	txnArgOverhead   = 32
)

// connState is the per-connection dispatch state: the transaction queue.
type connState struct {
	inTxn       bool
	dirty       bool // queue-time validation failed; EXEC must abort
	queue       []queuedCmd
	queuedBytes int // cumulative argument bytes retained by queue
	// txShard pins the transaction to one shard: 0 means not yet fixed
	// (only keyless commands queued so far), otherwise shard index + 1.
	txShard int
}

func (cs *connState) reset() {
	cs.inTxn = false
	cs.dirty = false
	cs.txShard = 0
	// Zero the entries before truncating: queue[:0] alone keeps every
	// queued args slice reachable through the backing array, so a
	// long-lived idle connection would retain its last transaction's
	// command data indefinitely.
	clear(cs.queue)
	cs.queue = cs.queue[:0]
	cs.queuedBytes = 0
}

// enqueue admits one already-validated (lookup + arity) command to the
// queue. DenyTxn commands poison the transaction instead: SAVE would take
// the checkpoint barrier mid-EXEC and SHUTDOWN would tear the connection down.
// args are the reader's until its next read: the queue keeps its own copy, one
// exact vector and one payload buffer per command — a vector shared by the
// queue would leave outgrown arrays pinned past what queuedBytes meters.
func (cs *connState) enqueue(ctx *Ctx, bc *boundCmd, args [][]byte) {
	if bc.cmd.Flags&FlagDenyTxn != 0 {
		cs.dirty = true
		ctx.w.errorf("%s is not allowed in transactions", bc.cmd.Name)
		return
	}
	if len(cs.queue) >= maxTxnQueue {
		cs.dirty = true
		ctx.w.errorf("transaction queue limit (%d commands) reached", maxTxnQueue)
		return
	}
	sz := 0
	for _, a := range args {
		sz += len(a) + txnArgOverhead
	}
	if cs.queuedBytes+sz > maxTxnQueueBytes {
		cs.dirty = true
		ctx.w.errorf("transaction queue limit (%d bytes) reached", maxTxnQueueBytes)
		return
	}
	// Shard confinement (multi-shard only): every keyed command must route
	// to the transaction's one shard, fixed by the first keyed command
	// queued. Whole-keyspace commands span every shard by definition and
	// cannot be confined.
	if s := ctx.s; s != nil && len(s.shards) > 1 {
		if bc.cmd.Flags&FlagLockAll != 0 {
			cs.dirty = true
			ctx.w.errorKind("CROSSSLOT", bc.cmd.Name+" inside MULTI cannot be confined to one shard")
			return
		}
		if bc.cmd.Keys.First != 0 {
			sh, ok := s.routeKeys(ctx, bc.cmd, args)
			if !ok {
				cs.dirty = true
				return // routeKeys already wrote the CROSSSLOT error
			}
			if cs.txShard != 0 && cs.txShard != sh.idx+1 {
				cs.dirty = true
				ctx.w.errorKind("CROSSSLOT", "Keys in request don't hash to the same slot")
				return
			}
			cs.txShard = sh.idx + 1
		}
	}
	cs.queuedBytes += sz
	own, payload := make([][]byte, len(args)), make([]byte, 0, sz-len(args)*txnArgOverhead)
	for i, a := range args {
		payload = append(payload, a...)
		own[i] = payload[len(payload)-len(a) : len(payload) : len(payload)]
	}
	cs.queue = append(cs.queue, queuedCmd{bc: bc, args: own})
	ctx.w.simple("QUEUED")
}

func cmdMulti(ctx *Ctx) {
	if ctx.cs == nil {
		ctx.w.errorf("MULTI is not supported on this connection")
		return
	}
	if ctx.cs.inTxn {
		ctx.w.errorf("MULTI calls can not be nested")
		return
	}
	ctx.cs.inTxn = true
	ctx.w.simple("OK")
}

func cmdDiscard(ctx *Ctx) {
	if ctx.cs == nil || !ctx.cs.inTxn {
		ctx.w.errorf("DISCARD without MULTI")
		return
	}
	ctx.cs.reset()
	ctx.w.simple("OK")
}

func cmdExec(ctx *Ctx) {
	cs := ctx.cs
	if cs == nil || !cs.inTxn {
		ctx.w.errorf("EXEC without MULTI")
		return
	}
	if cs.dirty {
		cs.reset()
		ctx.w.errorKind("EXECABORT", "Transaction discarded because of previous errors.")
		return
	}

	// Union of the queue's stripes, deadlock-ordered. A queued FlagLockAll
	// command (FLUSHALL) escalates to every stripe.
	stripes := ctx.txstripe[:0]
	lockAll := false
	for _, q := range cs.queue {
		if q.bc.cmd.Flags&FlagLockAll != 0 {
			lockAll = true
			break
		}
	}
	if lockAll {
		stripes = ctx.s.allStripes(stripes)
	} else {
		keys := ctx.keybuf[:0]
		for _, q := range cs.queue {
			if q.bc.cmd.Flags&FlagWrite != 0 {
				keys = q.bc.cmd.Keys.keys(keys, q.args)
			}
		}
		ctx.keybuf = keys
		stripes = ctx.s.appendStripes(stripes, keys)
	}
	ctx.txstripe = stripes

	// The transaction's shard: fixed at queue time, shard 0 when only
	// keyless commands were queued (no key locks taken, but the barrier
	// hold still keeps the reply array un-torn by SAVE's fence).
	sh := ctx.s.shards[0]
	if cs.txShard != 0 {
		sh = ctx.s.shards[cs.txShard-1]
	}

	// reset via defer, like the stripe unlocks: a panic mid-EXEC recovered
	// above dispatch must not leave the connection inTxn with the
	// partially-executed queue still queued (a later EXEC would re-apply
	// the already-run prefix).
	defer cs.reset()
	ctx.setShard(sh)
	sh.locks.Exec.RLock()
	execQueue(ctx, sh, cs.queue, stripes)
}

// execQueue runs the queued commands under the shard's checkpoint barrier
// and the union stripes, unlocking via defer: a panicking handler must not
// leave the shard's locks held after the panic is recovered upstream.
func execQueue(ctx *Ctx, sh *shard, queue []queuedCmd, stripes []int) {
	defer sh.locks.Exec.RUnlock()
	sh.locks.LockStripes(stripes)
	defer sh.locks.UnlockStripes(stripes)
	outer := ctx.args
	defer func() { ctx.args = outer }()
	run := func() {
		ctx.w.arrayHeader(len(queue))
		for _, q := range queue {
			ctx.args = q.args
			q.bc.invoke(ctx)
		}
	}
	if !sh.atomically(ctx.hd, queue, run) {
		ctx.w.errorf("out of memory")
	}
}
