package server

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster/slot"
	"repro/internal/kvstore"
)

// commandDefs declares every command the server speaks — the whole protocol
// surface is this one table. Adding a command is adding an entry: dispatch
// supplies arity validation, key extraction, striped locking, and stats; the
// handler only does the command's own work. COMMAND, the README reference
// table, and the generated arity-error tests all derive from these entries.
func commandDefs() []*Command {
	defs := []*Command{
		// Connection / trivial.
		{Name: "PING", Arity: -1, Flags: FlagFast, Handler: cmdPing},
		{Name: "ECHO", Arity: 2, Flags: FlagFast, Handler: cmdEcho},

		// Strings. NeedsType 's' marks the commands that read or rewrite a
		// key's string value in place; SET-family commands overwrite any
		// type (Redis semantics) and stay type-agnostic.
		{Name: "GET", Arity: 2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, 1, 1}, NeedsType: 's', Handler: cmdGet},
		{Name: "SET", Arity: 3, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, Handler: cmdSet},
		{Name: "SETNX", Arity: 3, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdSetNX},
		{Name: "SETEX", Arity: 4, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, Handler: cmdSetEx},
		{Name: "PSETEX", Arity: 4, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, Handler: cmdSetEx},
		{Name: "APPEND", Arity: 3, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, NeedsType: 's', Handler: cmdAppend},
		{Name: "GETSET", Arity: 3, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, NeedsType: 's', Handler: cmdGetSet},
		{Name: "GETDEL", Arity: 2, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, NeedsType: 's', Handler: cmdGetDel},
		{Name: "INCR", Arity: 2, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, NeedsType: 's', Handler: cmdIncr},
		{Name: "MGET", Arity: -2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, -1, 1}, Handler: cmdMGet},
		{Name: "MSET", Arity: -3, Flags: FlagWrite, Keys: KeySpec{1, -1, 2}, Handler: cmdMSet},

		// Keyspace.
		{Name: "DEL", Arity: -2, Flags: FlagWrite, Keys: KeySpec{1, -1, 1}, Handler: cmdDel},
		{Name: "EXISTS", Arity: -2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, -1, 1}, Handler: cmdExists},
		{Name: "TYPE", Arity: 2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdType},
		{Name: "DBSIZE", Arity: 1, Flags: FlagReadonly | FlagFast, Handler: cmdDBSize},
		{Name: "SCAN", Arity: -2, Flags: FlagReadonly, Handler: cmdScan},
		{Name: "FLUSHALL", Arity: 1, Flags: FlagWrite | FlagLockAll, Handler: cmdFlushAll},

		// Expiration. PEXPIREAT/PSETEXAT are the absolute-deadline forms
		// EXPIRE/SETEX rewrite to for replication (repl.go) — clock-free, so
		// replicas never resolve a relative duration themselves.
		{Name: "EXPIRE", Arity: 3, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdExpire},
		{Name: "PEXPIRE", Arity: 3, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdExpire},
		{Name: "PEXPIREAT", Arity: 3, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdPExpireAt},
		{Name: "PSETEXAT", Arity: 4, Flags: FlagWrite, Keys: KeySpec{1, 1, 1}, Handler: cmdPSetExAt},
		{Name: "TTL", Arity: 2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdTTL},
		{Name: "PTTL", Arity: 2, Flags: FlagReadonly | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdTTL},
		{Name: "PERSIST", Arity: 2, Flags: FlagWrite | FlagFast, Keys: KeySpec{1, 1, 1}, Handler: cmdPersist},

		// Transactions (txn.go).
		{Name: "MULTI", Arity: 1, Flags: FlagFast | FlagTxnControl | FlagDenyTxn, Handler: cmdMulti},
		{Name: "EXEC", Arity: 1, Flags: FlagTxnControl | FlagDenyTxn, Handler: cmdExec},
		{Name: "DISCARD", Arity: 1, Flags: FlagFast | FlagTxnControl | FlagDenyTxn, Handler: cmdDiscard},

		// Introspection / administration.
		{Name: "COMMAND", Arity: -1, Flags: FlagReadonly, Handler: cmdCommand},
		{Name: "INFO", Arity: -1, Flags: FlagReadonly, Handler: cmdInfo},
		{Name: "SAVE", Arity: 1, Flags: FlagAdmin | FlagDenyTxn, Handler: cmdSave},
		{Name: "SHUTDOWN", Arity: 1, Flags: FlagAdmin | FlagDenyTxn, Handler: cmdShutdown},

		// Replication (repl.go): the PSYNC handshake, replica promotion,
		// replica acknowledgments, and write-acknowledgment waits.
		{Name: "REPLICAOF", Arity: 3, Flags: FlagAdmin | FlagDenyTxn, Handler: cmdReplicaOf},
		{Name: "REPLCONF", Arity: -2, Flags: FlagAdmin | FlagFast, Handler: cmdReplConf},
		{Name: "PSYNC", Arity: 3, Flags: FlagAdmin | FlagDenyTxn, Handler: cmdPSync},
		{Name: "WAIT", Arity: 3, Flags: FlagDenyTxn, Handler: cmdWait},

		// Observability (commands_obs.go): the slow log and the latency
		// event timeline. Readonly — they touch obs state, never the
		// keyspace (ralloc-vet's obspurity analyzer holds obs to that).
		{Name: "SLOWLOG", Arity: -2, Flags: FlagReadonly, Handler: cmdSlowlog},
		{Name: "LATENCY", Arity: -2, Flags: FlagReadonly, Handler: cmdLatency},
	}
	// Typed objects (commands_object.go): the HSET and LPUSH families.
	return append(defs, objectCommandDefs()...)
}

func cmdPing(ctx *Ctx) {
	switch len(ctx.args) {
	case 1:
		ctx.w.simple("PONG")
	case 2:
		ctx.w.bulk(ctx.args[1])
	default:
		ctx.w.errorf("wrong number of arguments for 'ping' command")
	}
}

func cmdEcho(ctx *Ctx) { ctx.w.bulk(ctx.args[1]) }

// cmdGet reads the value straight into the reply buffer, behind room for its header.
func cmdGet(ctx *Ctx) {
	buf := slices.Grow(ctx.w.bw.AvailableBuffer(), bulkHeaderRoom)[:bulkHeaderRoom]
	buf, _, ok, err := ctx.sh.st.AppendBytes(buf, ctx.args[1])
	if err != nil {
		writeStoreErr(ctx, err)
		return
	}
	if ok {
		ctx.w.bulkInPlace(buf)
	} else {
		ctx.w.nilBulk()
	}
}

// cmdSet: the +OK acknowledgment is written only after SetBytes returns,
// i.e. after the new record is flushed and linked — an acknowledged SET is
// durable in the crash-simulation sense. Dispatch holds the key's stripe
// lock, so the write cannot interleave inside an RMW command's read→write
// window (a SET landing there would be silently overwritten despite its
// +OK). SET clears any TTL, like Redis.
func cmdSet(ctx *Ctx) {
	if !ctx.sh.st.SetBytes(ctx.hd, ctx.args[1], ctx.args[2]) {
		ctx.w.errorf("out of memory")
		return
	}
	ctx.w.simple("OK")
}

// cmdSetNX declines on an existing key of *any* type (Redis returns 0, not
// WRONGTYPE: the value is never read).
func cmdSetNX(ctx *Ctx) {
	if ctx.sh.st.TypeOf(ctx.args[1]) != kvstore.TypeNone {
		ctx.w.integer(0)
	} else if !ctx.sh.st.SetBytes(ctx.hd, ctx.args[1], ctx.args[2]) {
		ctx.w.errorf("out of memory")
	} else {
		ctx.w.integer(1)
	}
}

// cmdSetEx serves SETEX (seconds) and PSETEX (milliseconds). The relative
// duration is resolved against this server's clock once, here, and the
// command propagates to replicas as the absolute-deadline PSETEXAT — a
// replica applying the relative form later (or with a different clock)
// would compute a divergent deadline.
func cmdSetEx(ctx *Ctx) {
	name := commandName(ctx.args)
	d, err := strconv.ParseInt(string(ctx.args[2]), 10, 64)
	if err != nil {
		ctx.w.errorf("value is not an integer or out of range")
		return
	}
	if d <= 0 {
		ctx.w.errorf("invalid expire time in '%s' command", name)
		return
	}
	at := deadlineFrom(ctx.sh.st.Now(), d, name == "setex")
	ctx.prop = [][]byte{[]byte("PSETEXAT"), ctx.args[1], []byte(strconv.FormatInt(at, 10)), ctx.args[3]}
	if !ctx.sh.st.SetBytesExpire(ctx.hd, ctx.args[1], ctx.args[3], at) {
		ctx.w.errorf("out of memory")
		return
	}
	ctx.w.simple("OK")
}

// cmdAppend preserves the key's TTL (Redis semantics): the rewrite carries
// the old record's deadline into the new allocation.
func cmdAppend(ctx *Ctx) {
	old, deadline, _, err := ctx.sh.st.GetBytesExpire(ctx.args[1])
	if err != nil {
		writeStoreErr(ctx, err)
		return
	}
	val := make([]byte, 0, len(old)+len(ctx.args[2]))
	val = append(append(val, old...), ctx.args[2]...)
	if !ctx.sh.st.SetBytesExpire(ctx.hd, ctx.args[1], val, deadline) {
		ctx.w.errorf("out of memory")
		return
	}
	ctx.w.integer(int64(len(val)))
}

// cmdGetSet clears any TTL on the key (Redis semantics): SetBytes writes an
// immortal record. Unlike plain SET it *reads* the old value, so a
// non-string key is WRONGTYPE.
func cmdGetSet(ctx *Ctx) {
	old, ok, err := ctx.sh.st.GetBytes(ctx.args[1])
	if err != nil {
		writeStoreErr(ctx, err)
		return
	}
	if !ctx.sh.st.SetBytes(ctx.hd, ctx.args[1], ctx.args[2]) {
		ctx.w.errorf("out of memory")
	} else if ok {
		ctx.w.bulk(old)
	} else {
		ctx.w.nilBulk()
	}
}

// cmdGetDel returns the value and deletes the key in one locked step.
func cmdGetDel(ctx *Ctx) {
	old, ok, err := ctx.sh.st.GetBytes(ctx.args[1])
	if err != nil {
		writeStoreErr(ctx, err)
		return
	}
	if !ok {
		ctx.w.nilBulk()
		return
	}
	ctx.sh.st.Delete(ctx.hd, ctx.args[1])
	ctx.w.bulk(old)
}

// cmdIncr preserves the key's TTL, like Redis (and unlike SET): the
// canonical SETEX+INCR rate-limiter pattern depends on the counter still
// expiring. The read-modify-write is atomic under the stripe lock dispatch
// already holds.
func cmdIncr(ctx *Ctx) {
	key := ctx.args[1]
	n := int64(0)
	v, deadline, ok, err := ctx.sh.st.GetBytesExpire(key)
	if err != nil {
		writeStoreErr(ctx, err)
		return
	}
	if ok {
		parsed, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			ctx.w.errorf("value is not an integer or out of range")
			return
		}
		n = parsed
	}
	n++
	if !ctx.sh.st.SetBytesExpire(ctx.hd, key, []byte(strconv.FormatInt(n, 10)), deadline) {
		ctx.w.errorf("out of memory")
		return
	}
	ctx.w.integer(n)
}

// cmdMGet replies nil for missing keys AND for keys of the wrong type —
// Redis's one deliberate WRONGTYPE exception, so a mixed keyspace can still
// be bulk-read.
func cmdMGet(ctx *Ctx) {
	ctx.w.arrayHeader(len(ctx.args) - 1)
	for _, k := range ctx.args[1:] {
		if v, ok, _ := ctx.sh.st.GetBytes(k); ok {
			ctx.w.bulk(v)
		} else {
			ctx.w.nilBulk()
		}
	}
}

// cmdMSet runs with the union of its keys' stripes locked (dispatch sorts
// and dedups them), so unlike the old per-pair switch case the whole MSET is
// atomic with respect to the RMW commands on any of its keys.
func cmdMSet(ctx *Ctx) {
	if len(ctx.args)%2 != 1 {
		ctx.w.errorf("wrong number of arguments for 'mset' command")
		return
	}
	for i := 1; i < len(ctx.args); i += 2 {
		if !ctx.sh.st.SetBytes(ctx.hd, ctx.args[i], ctx.args[i+1]) {
			ctx.w.errorf("out of memory")
			return
		}
	}
	ctx.w.simple("OK")
}

func cmdDel(ctx *Ctx) {
	n := int64(0)
	for _, k := range ctx.args[1:] {
		if ctx.sh.st.Delete(ctx.hd, k) {
			n++
		}
	}
	ctx.w.integer(n)
}

// cmdExists counts keys of any type (it never reads the value).
func cmdExists(ctx *Ctx) {
	n := int64(0)
	for _, k := range ctx.args[1:] {
		if ctx.sh.st.TypeOf(k) != kvstore.TypeNone {
			n++
		}
	}
	ctx.w.integer(n)
}

// cmdType reports the key's value kind from the persistent type tag —
// string, hash, list, or none — through the same lazy-expiry policy as
// every read, so an expired key reports none.
func cmdType(ctx *Ctx) {
	ctx.w.simple(ctx.sh.st.TypeOf(ctx.args[1]).String())
}

// cmdDBSize sums the live record count over every shard. Reading each
// shard's atomic length without locks is the pre-cluster behavior too — a
// concurrent writer can always race the reply by one key.
func cmdDBSize(ctx *Ctx) { ctx.w.integer(int64(ctx.s.keyspaceLen())) }

// cmdFlushAll runs with every shard's barrier read side and every stripe of
// every shard held (lockAllMode): no concurrent writer can interleave, on
// any shard. It purges through DeleteAll rather than a Range walk, because
// Range now (correctly) hides expired records and object payloads — and
// FLUSHALL must free those corpses and graphs too.
func cmdFlushAll(ctx *Ctx) {
	for i, sh := range ctx.s.shards {
		sh.st.DeleteAll(ctx.handleFor(i))
	}
	ctx.w.simple("OK")
}

// cmdScan serves SCAN cursor [COUNT n]: an incremental, resumable walk of
// the whole keyspace with the standard Redis contract — every key present
// for the walk's entire duration is returned at least once, and a full
// iteration terminates. The cursor encodes (shard, per-shard position): the
// low byte selects the shard, the rest is that shard's bucket cursor, so a
// resumed walk continues exactly where it stopped and never revisits a
// finished shard. Within a shard the position is a hash-bucket index and a
// reply always ends at a bucket boundary (kvstore.ScanCursor), which is what
// makes the cursor stable across calls without per-connection state.
func cmdScan(ctx *Ctx) {
	cur, err := strconv.ParseUint(string(ctx.args[1]), 10, 64)
	if err != nil {
		ctx.w.errorf("invalid cursor")
		return
	}
	count := 10
	if len(ctx.args) > 2 {
		if len(ctx.args) != 4 || !strings.EqualFold(string(ctx.args[2]), "COUNT") {
			ctx.w.errorf("syntax error")
			return
		}
		n, err := strconv.Atoi(string(ctx.args[3]))
		if err != nil || n < 1 {
			ctx.w.errorf("value is not an integer or out of range")
			return
		}
		count = n
	}
	shardIdx, inner, ok := slot.DecodeCursor(cur, len(ctx.s.shards))
	if !ok {
		ctx.w.errorf("invalid cursor")
		return
	}
	keys := make([][]byte, 0, count)
	next := uint64(0)
	for shardIdx < len(ctx.s.shards) {
		if len(keys) >= count {
			next = slot.EncodeCursor(shardIdx, inner)
			break
		}
		sh := ctx.s.shards[shardIdx]
		nin, done := sh.st.ScanCursor(inner, count-len(keys), func(key []byte, _ kvstore.Type) {
			// The callback runs under the bucket's stripe lock and key
			// aliases region memory that a concurrent DEL could recycle
			// after the lock drops, so the reply needs its own copy.
			keys = append(keys, append([]byte(nil), key...))
		})
		if !done {
			next = slot.EncodeCursor(shardIdx, nin)
			break
		}
		shardIdx++
		inner = 0
	}
	ctx.w.arrayHeader(2)
	ctx.w.bulk([]byte(strconv.FormatUint(next, 10)))
	ctx.w.arrayHeader(len(keys))
	for _, k := range keys {
		ctx.w.bulk(k)
	}
}

// cmdExpire serves EXPIRE (seconds) and PEXPIRE (milliseconds). Like
// SETEX, the deadline is resolved here and propagated absolute (PEXPIREAT);
// an EXPIRE on a missing key still propagates — as a no-op PEXPIREAT — so
// replica feeds stay byte-identical regardless of local keyspace state.
func cmdExpire(ctx *Ctx) {
	name := commandName(ctx.args)
	d, err := strconv.ParseInt(string(ctx.args[2]), 10, 64)
	if err != nil {
		ctx.w.errorf("value is not an integer or out of range")
		return
	}
	at := deadlineFrom(ctx.sh.st.Now(), d, name == "expire")
	ctx.prop = [][]byte{[]byte("PEXPIREAT"), ctx.args[1], []byte(strconv.FormatInt(at, 10))}
	if ctx.sh.st.Expire(ctx.args[1], at) {
		ctx.w.integer(1)
	} else {
		ctx.w.integer(0)
	}
}

// cmdTTL serves TTL (seconds, rounded up like Redis) and PTTL.
func cmdTTL(ctx *Ctx) {
	ms := ctx.sh.st.PTTL(ctx.args[1])
	if ms < 0 || commandName(ctx.args) == "pttl" {
		ctx.w.integer(ms)
	} else {
		ctx.w.integer((ms + 999) / 1000)
	}
}

func cmdPersist(ctx *Ctx) {
	if ctx.sh.st.Persist(ctx.args[1]) {
		ctx.w.integer(1)
	} else {
		ctx.w.integer(0)
	}
}

// cmdCommand implements COMMAND, COMMAND COUNT, and COMMAND INFO <name...>,
// generated straight from the registry.
func cmdCommand(ctx *Ctx) {
	if len(ctx.args) == 1 {
		ctx.w.arrayHeader(len(commandList))
		for _, c := range commandList {
			writeCommandEntry(ctx.w, c)
		}
		return
	}
	// Case-fold only plausibly-valid names: a hostile resp.MaxBulkLen subcommand
	// or command-name bulk must miss cheaply, not pay megabytes-sized
	// ToUpper copies (same guard as dispatch's longestCommandName check).
	// The bound is deliberately loose — any realistic subcommand fits.
	const maxSubcommandLen = 16
	var sub string
	if len(ctx.args[1]) <= maxSubcommandLen {
		sub = strings.ToUpper(string(ctx.args[1]))
	}
	switch sub {
	case "COUNT":
		if len(ctx.args) != 2 {
			ctx.w.errorf("wrong number of arguments for 'command|count' command")
			return
		}
		ctx.w.integer(int64(len(commandList)))
	case "INFO":
		ctx.w.arrayHeader(len(ctx.args) - 2)
		for _, name := range ctx.args[2:] {
			var c *Command
			if len(name) <= longestCommandName {
				c = commandTable[strings.ToUpper(string(name))]
			}
			if c != nil {
				writeCommandEntry(ctx.w, c)
			} else {
				ctx.w.nilArray()
			}
		}
	default:
		ctx.w.errorf("unknown subcommand '%s' for 'command'", errorEcho(ctx.args[1]))
	}
}

// writeCommandEntry renders one COMMAND reply element, Redis-shaped:
// [name, arity, [flags...], first-key, last-key, step].
func writeCommandEntry(w *respWriter, c *Command) {
	w.arrayHeader(6)
	w.bulk([]byte(strings.ToLower(c.Name)))
	w.integer(int64(c.Arity))
	names := c.Flags.names()
	w.arrayHeader(len(names))
	for _, n := range names {
		w.simple(n)
	}
	w.integer(int64(c.Keys.First))
	w.integer(int64(c.Keys.Last))
	w.integer(int64(c.Keys.Step))
}

// cmdInfo serves INFO and INFO <section>. A section argument renders that
// section alone — nothing of the others is read, so a monitor polling
// "INFO server" pays for five rows (commandstats and latencystats are only
// ever served this way; they are left out of the default reply, as in
// Redis). A name no section carries falls back to the full block, for
// clients that send "INFO all" or "INFO default". Names no real section
// can match skip the case-insensitive search entirely: a hostile
// resp.MaxBulkLen bulk must not cost a megabytes-sized compare per section.
func cmdInfo(ctx *Ctx) {
	if len(ctx.args) > 2 {
		ctx.w.errorf("wrong number of arguments for 'info' command")
		return
	}
	if len(ctx.args) == 2 && len(ctx.args[1]) > 0 && len(ctx.args[1]) <= 64 {
		if sec := ctx.s.stats.Named(string(ctx.args[1])); len(sec) > 0 {
			ctx.w.bulk([]byte(sec.Info(true)))
			return
		}
	}
	ctx.w.bulk([]byte(ctx.s.stats.Info(false)))
}

// cmdSave checkpoints every shard (see Server.Save for the single-fence vs
// per-shard orchestration). SAVE is keyless, so dispatch gives it no barrier
// of its own — Save takes each shard's write side itself, waiting out that
// shard's in-flight commands. SAVE is FlagDenyTxn: taking a barrier while
// EXEC holds a transaction's key stripes would deadlock against writers
// blocked on those stripes still holding their read side.
func cmdSave(ctx *Ctx) {
	if !ctx.s.hasCheckpoint() {
		ctx.w.errorf("no checkpoint configured (volatile heap)")
		return
	}
	if err := ctx.s.Save(); err != nil {
		ctx.w.errorf("checkpoint failed: %v", err)
		return
	}
	ctx.w.simple("OK")
}

func cmdShutdown(ctx *Ctx) {
	ctx.w.simple("OK")
	ctx.quit = true
}

// commandName is the lowercased command name as dispatched (args[0] may be
// any case on the wire).
func commandName(args [][]byte) string { return strings.ToLower(string(args[0])) }
