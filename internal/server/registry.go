package server

import (
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster/shardlock"
	"repro/internal/obs"
)

// This file is the command-table API: every command the server speaks is a
// Command value in the registry (see commands.go), and dispatch is a small
// declarative pipeline — lookup → arity validation → KeySpec-driven key
// extraction → deadlock-ordered striped-lock acquisition → stats →
// handler — instead of a monolithic switch where every case hand-rolls its
// own checks. The table is also the single source of truth for COMMAND
// introspection, the README command reference (TestREADMECommandTable), the
// generated arity-error tests, and MULTI/EXEC queue-time validation.

// Flags describe a command's behavior to the dispatch pipeline.
type Flags uint16

const (
	// FlagWrite marks a command that mutates the keyspace. Dispatch
	// acquires the striped key locks its KeySpec declares before the
	// handler runs; the handler itself never locks.
	FlagWrite Flags = 1 << iota
	// FlagReadonly marks a command that never mutates the keyspace.
	FlagReadonly
	// FlagFast marks a constant-or-near-constant-time command (Redis's
	// "fast" flag: no dependence on value sizes or keyspace cardinality).
	FlagFast
	// FlagAdmin marks server-administration commands (SAVE, SHUTDOWN).
	FlagAdmin
	// FlagDenyTxn marks commands that may not be queued inside MULTI:
	// SAVE takes the checkpoint barrier's write side (which would deadlock
	// against the transaction's held locks) and SHUTDOWN tears the
	// connection down mid-queue. Queueing one replies an error and poisons
	// the transaction (EXECABORT at EXEC), like Redis does for SUBSCRIBE.
	FlagDenyTxn
	// FlagTxnControl marks MULTI/EXEC/DISCARD themselves: they execute
	// immediately even while a transaction is queuing.
	FlagTxnControl
	// FlagLockAll makes dispatch acquire every key stripe (FLUSHALL):
	// keyspace-wide mutation without a KeySpec, still deadlock-ordered
	// and therefore safe to queue inside MULTI.
	FlagLockAll
)

// flagNames renders the set bits as Redis-style lowercase flag names, in
// declaration order (COMMAND reply and README table).
func (f Flags) names() []string {
	var out []string
	for _, fn := range []struct {
		bit  Flags
		name string
	}{
		{FlagWrite, "write"},
		{FlagReadonly, "readonly"},
		{FlagFast, "fast"},
		{FlagAdmin, "admin"},
		{FlagDenyTxn, "denytxn"},
		{FlagTxnControl, "txnctl"},
		{FlagLockAll, "lockall"},
	} {
		if f&fn.bit != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// KeySpec declares where a command's keys sit in its argument vector,
// Redis-style: First is the index of the first key (1-based; 0 means the
// command touches no keys), Last is the index of the last key (-1 means the
// final argument), Step is the stride between keys (2 for MSET's key/value
// pairs). Dispatch uses the spec to extract keys uniformly — for striped
// lock acquisition, for MULTI/EXEC's union locking, and for COMMAND.
type KeySpec struct {
	First, Last, Step int
}

// keys appends the key arguments args declares to dst and returns it.
// args[0] is the command name. A Last beyond the argument vector is clamped:
// arity validation has already run, so a short tail only happens for
// variadic specs mid-validation (MSET's pairing is handler-checked).
func (ks KeySpec) keys(dst [][]byte, args [][]byte) [][]byte {
	if ks.First == 0 {
		return dst
	}
	last := ks.Last
	if last < 0 {
		last = len(args) + last
	}
	if last > len(args)-1 {
		last = len(args) - 1
	}
	step := ks.Step
	if step <= 0 {
		step = 1
	}
	for i := ks.First; i <= last; i += step {
		dst = append(dst, args[i])
	}
	return dst
}

// Ctx carries one command invocation through dispatch to its handler: the
// server, the connection's allocation handle and reply writer, the parsed
// argument vector (args[0] is the command name as sent), and the
// connection's transaction state. One Ctx is reused per connection, so
// handlers must not retain it.
type Ctx struct {
	s    *Server
	hd   alloc.Handle
	w    *respWriter
	args [][]byte
	cs   *connState
	quit bool // set by SHUTDOWN; returned to the connection loop

	// sh is the shard this invocation routed to (set by dispatch for keyed
	// commands; nil for keyless ones). hds holds the connection's per-shard
	// allocation handles; test harnesses that drive one shard directly may
	// leave it nil and set hd themselves.
	sh  *shard
	hds []alloc.Handle

	// fromLink marks invocations replayed from the replication link: they
	// bypass the replica's -READONLY gate and are not re-propagated by the
	// tap (the link force-appends the primary's exact bytes instead).
	fromLink bool
	// prop, when set by a write handler, replaces ctx.args as the
	// propagated form of this command (EXPIRE → PEXPIREAT and friends, so
	// replicas never consult their own clock). Cleared by dispatch.
	prop [][]byte
	// hijack, when set by a handler (PSYNC), takes over the raw connection
	// after the dispatch barrier is released; the connection loop stops
	// reading commands and hands the conn to it.
	hijack func(net.Conn)

	// scratch buffers, reused across dispatches on this connection so the
	// steady-state pipeline allocates nothing.
	keybuf   [][]byte
	stripes  []int
	txstripe []int

	// memo is a tiny direct-mapped lookup cache indexed by the command
	// name's first byte: a pipelined GET/SET stream resolves its commands
	// by one pointer load and a short string compare instead of a map
	// hash. Misses (cold or colliding first bytes, lowercase names) fall
	// back to the map.
	memo [32]*boundCmd
}

// Handler executes one command. By the time it runs, arity is validated and
// every key lock the command's KeySpec declares is held; the handler only
// does the command's own work and writes exactly one reply.
type Handler func(*Ctx)

// Command is one registry entry: everything the dispatch pipeline needs to
// run the command without the command's handler restating it.
type Command struct {
	// Name is the canonical command name, uppercase.
	Name string
	// Arity is Redis-style: positive means exactly that many arguments
	// (including the name), negative means at least |Arity|.
	Arity int
	// Flags drive lock acquisition and MULTI/EXEC admission.
	Flags Flags
	// Keys declares where the command's keys live (zero value: no keys).
	Keys KeySpec
	// NeedsType, when nonzero, names the value type the command's key must
	// hold — 's' string, 'h' hash, 'l' list. Applying the command to a key
	// of a different type replies Redis's exact WRONGTYPE error; the
	// registry-generated fidelity test probes every declaration. Zero
	// means type-agnostic (DEL, EXPIRE, TYPE, ...) or type-overwriting
	// (SET, MSET).
	NeedsType byte
	// Handler does the work.
	Handler Handler
}

// arityOK reports whether n arguments satisfy the declared arity.
func arityOK(arity, n int) bool {
	if arity >= 0 {
		return n == arity
	}
	return n >= -arity
}

// cmdStats is one command's per-server telemetry block (boundCmd.invoke's
// target): a full fixed-layout latency histogram — every invocation is
// recorded, not sampled, which is what makes INFO latencystats' p50/p99/p999
// real quantiles — plus an error-reply counter. Recording is two atomic
// fetch-adds and allocates nothing (see obs.Histogram).
type cmdStats struct {
	hist obs.Histogram
	errs atomic.Uint64
}

// lock modes precomputed from a Command's flags and KeySpec so dispatch
// branches on one byte instead of re-deriving them per invocation.
const (
	lockNone      = iota // readonly or keyless: no stripes
	lockSingleKey        // exactly one key at args[1]: one stripe, no slices
	lockMulti            // variadic keys: extract, sort, dedup
	lockAllMode          // FlagLockAll: every stripe
)

// boundCmd is a registry entry bound to one server: the immutable Command
// plus this server's counters, its handler (a write command's wrapped in the
// replication tap when replicating), and the precomputed lock mode.
type boundCmd struct {
	cmd      *Command
	stats    cmdStats
	run      Handler
	lockMode uint8
	// oneOp: with more arguments than this the command is several structure
	// operations (a variadic write's minimum; no limit for the others).
	oneOp int
}

func lockModeOf(c *Command) uint8 {
	switch {
	case c.Flags&FlagLockAll != 0:
		return lockAllMode
	case c.Flags&FlagWrite == 0 || c.Keys.First == 0:
		return lockNone
	case c.Keys.First == 1 && c.Keys.Last == 1:
		return lockSingleKey
	default:
		return lockMulti
	}
}

// invoke is the stats layer around every handler, inlined rather than
// closure-wrapped because it sits on the pipelined hot path: it
// times every invocation into the command's histogram (two reads of the
// monotonic clock, as offsets from the server's start, plus two atomic adds)
// and counts error replies. Error detection piggybacks on the reply writer: any
// handler that writes an error reply bumps w.errs. Executions at or over
// the server's slowlog/latency thresholds take the slow path — by
// definition not hot — which reads the wall clock and appends to the slow log
// ring and the LATENCY event timeline. The replication tap, when there is
// one, is inside this, in bc.run.
func (bc *boundCmd) invoke(ctx *Ctx) {
	e0 := ctx.w.errs
	t0 := time.Since(ctx.s.start)
	bc.run(ctx)
	d := time.Since(ctx.s.start) - t0
	bc.stats.hist.Record(d)
	if ctx.w.errs != e0 {
		bc.stats.errs.Add(1)
	}
	if int64(d) >= ctx.s.slowNs || int64(d) >= ctx.s.latNs {
		ctx.s.recordSlow(ctx.args, d)
	}
}

// commandTable and commandList are the process-wide immutable registry,
// built once from commands.go's declarations. commandList is sorted by name
// (COMMAND reply order, docs order). longestCommandName lets dispatch skip
// the case-folding fallback for names no registered command can match.
var (
	commandTable       = map[string]*Command{}
	commandList        []*Command
	longestCommandName int
)

func init() {
	for _, c := range commandDefs() {
		if c.Name != strings.ToUpper(c.Name) {
			panic("server: command name must be uppercase: " + c.Name)
		}
		if _, dup := commandTable[c.Name]; dup {
			panic("server: duplicate command " + c.Name)
		}
		if c.Handler == nil {
			panic("server: command without handler: " + c.Name)
		}
		commandTable[c.Name] = c
		commandList = append(commandList, c)
		if len(c.Name) > longestCommandName {
			longestCommandName = len(c.Name)
		}
	}
	sort.Slice(commandList, func(i, j int) bool { return commandList[i].Name < commandList[j].Name })
}

// CommandCount reports how many commands the registry serves (COMMAND COUNT
// gives the same number over the wire).
func CommandCount() int { return len(commandList) }

// Commands returns the registry entries, sorted by name. The slice is shared;
// callers must not mutate it.
func Commands() []*Command { return commandList }

// CommandTableMarkdown renders the registry as the README's command
// reference table. TestREADMECommandTable fails when the README drifts from
// this rendering, so the docs are always generated from the table.
func CommandTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| Command | Arity | Flags | Keys (first,last,step) | Type |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, c := range commandList {
		keys := "—"
		if c.Keys.First != 0 {
			keys = strconv.Itoa(c.Keys.First) + "," + strconv.Itoa(c.Keys.Last) + "," + strconv.Itoa(c.Keys.Step)
		}
		flags := strings.Join(c.Flags.names(), " ")
		if flags == "" {
			flags = "—"
		}
		typ := "any"
		switch c.NeedsType {
		case 's':
			typ = "string"
		case 'h':
			typ = "hash"
		case 'l':
			typ = "list"
		}
		b.WriteString("| `" + c.Name + "` | " + strconv.Itoa(c.Arity) + " | " + flags + " | " + keys + " | " + typ + " |\n")
	}
	return b.String()
}

// bindCommands builds the per-server dispatch table: every registry entry
// with its counters (boundCmd.invoke), and when replicating a write
// command's handler wrapped in the tap, the server's only wrap.
func (s *Server) bindCommands() {
	s.cmds = make(map[string]*boundCmd, len(commandTable))
	for name, c := range commandTable {
		bc := &boundCmd{cmd: c, run: c.Handler, lockMode: lockModeOf(c), oneOp: math.MaxInt}
		if c.Flags&FlagWrite != 0 {
			if c.Arity < 0 {
				bc.oneOp = -c.Arity
			}
			if s.repl != nil {
				bc.run = s.repl.tap(c.Handler)
			}
		}
		s.cmds[name] = bc
	}
}

// fnv64a is the stripe hash, inlined (hash/fnv allocates a hasher per call —
// the old per-case keyLock paid that allocation on every write).
func fnv64a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// stripeOf maps a key to its lock stripe index (within whichever shard the
// key routed to — the stripe hash and the slot hash are independent).
func (s *Server) stripeOf(key []byte) int {
	return int(fnv64a(key) % uint64(shardlock.NumStripes))
}

// appendStripes appends the sorted, deduplicated stripe indexes for keys to
// dst. Sorting is what makes multi-key (and transaction-union) locking
// deadlock-free: every path acquires stripes in ascending order.
func (s *Server) appendStripes(dst []int, keys [][]byte) []int {
	base := len(dst)
	for _, k := range keys {
		dst = append(dst, s.stripeOf(k))
	}
	tail := dst[base:]
	if len(tail) <= 1 {
		return dst
	}
	sort.Ints(tail)
	out := dst[:base]
	for i, idx := range tail {
		if i > 0 && idx == tail[i-1] {
			continue
		}
		out = append(out, idx)
	}
	return out
}

// allStripes is one shard's full stripe set, ascending (EXEC's lockAll
// escalation at a single shard).
func (s *Server) allStripes(dst []int) []int {
	for i := 0; i < shardlock.NumStripes; i++ {
		dst = append(dst, i)
	}
	return dst
}

// commandStripes computes the stripes dispatch must hold for one command
// invocation, into ctx's scratch buffers (stored back so the grown backing
// arrays actually get reused across dispatches). FlagLockAll commands never
// reach here — dispatch sends them through the cross-shard helpers.
func commandStripes(ctx *Ctx, c *Command) []int {
	if c.Flags&FlagWrite == 0 || c.Keys.First == 0 {
		return nil
	}
	ctx.keybuf = c.Keys.keys(ctx.keybuf[:0], ctx.args)
	ctx.stripes = ctx.s.appendStripes(ctx.stripes[:0], ctx.keybuf)
	return ctx.stripes
}

// lookup resolves a command name as sent, nil for none. The per-connection
// memo answers a repeated name with one pointer load and an exact compare
// (the []byte→string conversions here are elided — no allocation); a miss
// goes to the map as sent, then uppercased — real clients send uppercase —
// and only for names short enough to be a command at all: a hostile
// resp.MaxBulkLen name must not cost a megabytes-sized ToUpper copy to miss.
func (s *Server) lookup(ctx *Ctx, name []byte) *boundCmd {
	if len(name) == 0 {
		return nil
	}
	slot := &ctx.memo[name[0]&31]
	if bc := *slot; bc != nil && string(name) == bc.cmd.Name {
		return bc
	}
	bc, ok := s.cmds[string(name)]
	if !ok && len(name) <= longestCommandName {
		bc, ok = s.cmds[strings.ToUpper(string(name))]
	}
	if ok {
		*slot = bc
	}
	return bc
}

// dispatch is the pipeline the switch used to be: lookup, arity, transaction
// queueing, key-lock acquisition, stats, handler. It reports whether
// the connection must close (SHUTDOWN).
func (s *Server) dispatch(ctx *Ctx, args [][]byte) (quit bool) {
	// Drop the references dispatch parks in ctx before returning, on every
	// exit path: args are views of the reader's storage (keybuf entries alias
	// them), valid until its next read, and the reader lets go of what a
	// large command grew before it blocks — a reference left in the reused
	// Ctx would be stale and would keep that alive for an idle connection.
	// Clearing keybuf to len is enough: entries beyond len are nil by
	// induction, and clearing to cap would turn one historical million-key
	// command into a permanent per-dispatch memset; oversized scratch arrays
	// are dropped outright. Open-coded defer, so it stays off the dispatch
	// benchmark gate.
	defer func() {
		ctx.args = nil
		ctx.prop = nil
		clear(ctx.keybuf)
		ctx.keybuf = ctx.keybuf[:0] // later clears are O(0), not O(stale len)
		const maxScratch = 1024
		if cap(ctx.keybuf) > maxScratch {
			ctx.keybuf = nil
		}
		if cap(ctx.stripes) > maxScratch {
			ctx.stripes = nil
		}
		if cap(ctx.txstripe) > maxScratch {
			ctx.txstripe = nil
		}
	}()
	bc := s.lookup(ctx, args[0])
	if bc == nil {
		if ctx.cs != nil && ctx.cs.inTxn {
			ctx.cs.dirty = true
		}
		ctx.w.errorf("unknown command '%s'", errorEcho(args[0]))
		return false
	}
	if !arityOK(bc.cmd.Arity, len(args)) {
		if ctx.cs != nil && ctx.cs.inTxn {
			ctx.cs.dirty = true
		}
		ctx.w.errorf("wrong number of arguments for '%s' command", strings.ToLower(string(args[0])))
		return false
	}
	// Replicas refuse client writes: only the replication link (fromLink)
	// mutates a replica's store, so its state is a pure function of the
	// primary's feed. Checked before transaction queueing so a MULTI on a
	// replica fails at queue time, not inside EXEC.
	if bc.cmd.Flags&FlagWrite != 0 && !ctx.fromLink && s.repl != nil && s.repl.replica.Load() {
		if ctx.cs != nil && ctx.cs.inTxn {
			ctx.cs.dirty = true
		}
		ctx.w.errorKind("READONLY", "You can't write against a read only replica.")
		return false
	}
	if ctx.cs != nil && ctx.cs.inTxn && bc.cmd.Flags&FlagTxnControl == 0 {
		ctx.cs.enqueue(ctx, bc, args)
		return false
	}
	ctx.args = args
	ctx.quit = false
	// Routing and the checkpoint barrier: keyed commands take their shard's
	// barrier read side here (the write side is that shard's SAVE fence), so
	// a checkpoint cut never lands mid-command and other shards' fences
	// never stall this command (a kill can land mid-command: see invokeWrite).
	// Keyless commands (PING, INFO, DBSIZE, SCAN, admin/replication control)
	// take no barrier — they either read atomics and stripe-locked structures
	// that tolerate concurrent cuts, or, like SAVE itself, acquire barriers of
	// their own.
	switch bc.lockMode {
	case lockNone:
		if bc.cmd.Keys.First == 0 {
			ctx.sh = nil
			bc.invoke(ctx)
			break
		}
		sh, ok := s.routeKeys(ctx, bc.cmd, args)
		if !ok {
			return false
		}
		ctx.setShard(sh)
		sh.locks.Exec.RLock()
		invokeBarrier(ctx, bc, sh)
	case lockSingleKey:
		// Single-key write (SET/INCR/SETEX/…): one stripe, locked without
		// building key or stripe slices.
		sh := s.shardOf(args[1])
		ctx.setShard(sh)
		sh.locks.Exec.RLock()
		mu := &sh.locks.Stripes[s.stripeOf(args[1])]
		mu.Lock()
		invokeUnlocking(ctx, bc, sh, mu)
	case lockAllMode:
		// Keyspace-wide mutation (FLUSHALL): every shard's barrier read
		// side, then every stripe of every shard, in global order.
		ctx.sh = nil
		shardlock.RLockAll(s.locksAll)
		shardlock.LockAllStripes(s.locksAll)
		invokeAllUnlocking(ctx, bc)
	default:
		sh, ok := s.routeKeys(ctx, bc.cmd, args)
		if !ok {
			return false
		}
		ctx.setShard(sh)
		stripes := commandStripes(ctx, bc.cmd)
		sh.locks.Exec.RLock()
		sh.locks.LockStripes(stripes)
		invokeStripedUnlocking(ctx, bc, sh, stripes)
	}
	return ctx.quit
}

// The invoke* helpers release dispatch's barrier and stripe locks via defer
// (open-coded, so they stay off the benchmark gate's 5% budget): a panicking
// handler must fail one connection, not leave its shard's locks held and wedge
// every future writer (and SAVE fence) behind a dead connection.
func invokeBarrier(ctx *Ctx, bc *boundCmd, sh *shard) {
	defer sh.locks.Exec.RUnlock()
	bc.invoke(ctx)
}

func invokeUnlocking(ctx *Ctx, bc *boundCmd, sh *shard, mu *sync.Mutex) {
	defer sh.locks.Exec.RUnlock()
	defer mu.Unlock()
	bc.invokeWrite(ctx, sh)
}

func invokeStripedUnlocking(ctx *Ctx, bc *boundCmd, sh *shard, stripes []int) {
	defer sh.locks.Exec.RUnlock()
	defer sh.locks.UnlockStripes(stripes)
	bc.invokeWrite(ctx, sh)
}

// invokeWrite is invoke for a write whose stripes are held: a variadic write
// given more than its minimum arguments runs under the undo journal (journal.go).
func (bc *boundCmd) invokeWrite(ctx *Ctx, sh *shard) {
	if len(ctx.args) <= bc.oneOp {
		bc.invoke(ctx)
		return
	}
	unit := [1]queuedCmd{{bc: bc, args: ctx.args}}
	if !sh.atomically(ctx.hd, unit[:], func() { bc.invoke(ctx) }) {
		ctx.w.errorf("out of memory")
	}
}

func invokeAllUnlocking(ctx *Ctx, bc *boundCmd) {
	s := ctx.s
	defer shardlock.RUnlockAll(s.locksAll)
	defer shardlock.UnlockAllStripes(s.locksAll)
	bc.invoke(ctx)
}
