package server

// Unit atomicity (DESIGN.md has the argument). One structure operation is
// old-or-new at every store; a unit that is several — an EXEC of more than one
// write, a variadic write given more than its minimum arguments — would
// survive a kill half applied. It runs under its shard's undo journal: under
// the unit's stripes and the journal's mutex, each write key's before-image is
// encoded as clock-free commands that rebuild it from nothing (DEL k, then SET
// / PSETEXAT, or HSET… / RPUSH… and PEXPIREAT), persisted as one block and
// published in the heap's journal root; the unit runs; the root is cleared. A
// start that finds the root set replays it before anything else runs — the
// commands are idempotent, so a crash in the replay is answered by replaying
// again. FLUSHALL is not journaled, nor is an EXEC that queues one.

import (
	"bytes"
	"io"
	"strconv"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/resp"
)

// atomically runs run — unit's commands, whose stripes the caller holds —
// journaled (the block from hd) if unit is more than one structure operation.
// False, with run not called: the heap has no room for the journal.
func (sh *shard) atomically(hd alloc.Handle, unit []queuedCmd, run func()) bool {
	ops, flushAll := 0, false
	for _, q := range unit {
		f := q.bc.cmd.Flags
		flushAll = flushAll || f&FlagLockAll != 0
		if f&FlagWrite != 0 {
			if ops++; len(q.args) > q.bc.oneOp {
				ops++
			}
		}
	}
	if flushAll || ops < 2 {
		run()
		return true
	}
	sh.journalMu.Lock()
	defer sh.journalMu.Unlock()
	var img []byte
	for _, q := range unit {
		if q.bc.cmd.Flags&FlagWrite != 0 {
			for _, k := range q.bc.cmd.Keys.keys(nil, q.args) {
				img = appendBeforeImage(img, sh.st, k)
			}
		}
	}
	block, ok := sh.journal.SetRootBytes(hd, kvstore.RootJournal, img)
	if !ok {
		return false
	}
	// Not deferred: a panic out of run is a crash, which the journal undoes.
	run()
	sh.journal.SetRoot(kvstore.RootJournal, 0)
	hd.Free(block)
	return true
}

// appendBeforeImage appends the commands that give key the value it has now.
func appendBeforeImage(dst []byte, st *kvstore.Store, key []byte) []byte {
	cmd := func(name string, args ...[]byte) {
		dst = resp.AppendCommand(dst, append([][]byte{[]byte(name)}, args...))
	}
	cmd("DEL", key)
	name, elems := "RPUSH", [][]byte(nil)
	switch st.TypeOf(key) {
	case kvstore.TypeNone:
		return dst
	case kvstore.TypeString:
		// A deadline that passes between the two reads leaves the DEL alone.
		if v, at, ok, _ := st.GetBytesExpire(key); ok && at == 0 {
			cmd("SET", key, v)
		} else if ok {
			cmd("PSETEXAT", key, strconv.AppendInt(nil, at, 10), v)
		}
		return dst
	case kvstore.TypeHash:
		name = "HSET"
		fields, values, _ := st.HGetAll(key)
		for i := range fields {
			elems = append(elems, fields[i], values[i])
		}
	case kvstore.TypeList:
		elems, _ = st.LRange(key, 0, -1)
	}
	// Chunked to what replay's decoder accepts (resp.MaxArgs, MaxCommandBytes).
	for n, size, i := 0, 0, 0; i < len(elems); i++ {
		size += len(elems[i])
		if c := i + 1 - n; i+1 == len(elems) || c%2 == 0 && (c == 1024 || size > 1<<20) {
			cmd(name, append([][]byte{key}, elems[n:i+1]...)...)
			n, size = i+1, 0
		}
	}
	if at := st.ExpireAt(key); at != 0 {
		cmd("PEXPIREAT", key, strconv.AppendInt(nil, at, 10))
	}
	return dst
}

// replayJournal undoes the unit a crash cut short on sh, if any: the published
// commands run straight through their handlers — no locks, nothing propagated.
func (s *Server) replayJournal(sh *shard) {
	block, img := sh.journal.RootBytes(kvstore.RootJournal)
	if block == 0 {
		return
	}
	ctx := &Ctx{s: s, sh: sh, hd: sh.a.NewHandle(), w: newRespWriter(io.Discard), fromLink: true}
	br := resp.NewReader(bytes.NewReader(img))
	for {
		args, err := resp.ReadCommand(br, nil)
		if err != nil || len(args) == 0 {
			break
		}
		if c := commandTable[string(args[0])]; c != nil {
			ctx.args = args
			c.Handler(ctx)
		}
	}
	sh.journal.SetRoot(kvstore.RootJournal, 0)
	ctx.hd.Free(block)
	s.unitsUndone.Add(1)
}
