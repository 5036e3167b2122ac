package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/kvstore"
)

// The unit-atomicity sweep: a multi-operation unit is crashed at EVERY store
// it makes — the journal's block, its publish, each command, the clear — and
// must restart as it was before the unit or as it is after it, never a mix;
// the latest crash point the journal rolls back is crashed again at every
// store of the replay. The driver is sweepScript (crashsweep_test.go).

// TestUnitsAreAllOrNothingAtEveryStore is the table of units. The keyspace
// they start from has a key of each kind, with and without a deadline, so
// that every branch of the before-image encoder is replayed.
func TestUnitsAreAllOrNothingAtEveryStore(t *testing.T) {
	before := [][]string{
		{"SET", "s1", "old-1"}, {"SET", "s2", "old-2"},
		{"PSETEXAT", "ttl", "9000000", "old-ttl"},
		{"HSET", "h", "f1", "v1", "f2", "v2", "f3", "v3"},
		{"RPUSH", "l", "a", "b"}, {"PEXPIREAT", "l", "8000000"},
		{"RPUSH", "l2", "x"},
		{"SET", "bystander", "untouched"},
	}
	exec := [][]string{{"MULTI"},
		{"SET", "s1", "new-1"}, {"SET", "n1", "new"}, {"SET", "ttl", "no-ttl-now"}, {"SET", "h", "now-a-string"},
		{"INCR", "ctr"}, {"DEL", "s2"}, {"LPOP", "l"}, {"HSET", "n2", "f", "v"},
		{"EXEC"}}
	for _, tc := range []struct {
		name string
		unit [][]string
	}{
		{"EXEC of 8 writes", exec},
		{"MSET", [][]string{{"MSET", "s1", "m1", "n1", "m2", "h", "m3", "ttl", "m4"}}},
		{"RPUSH of 3", [][]string{{"RPUSH", "l", "c", "d", "e"}}},
		{"LPUSH creating", [][]string{{"LPUSH", "n1", "c", "d", "e"}}},
		{"HSET of 2", [][]string{{"HSET", "h", "f2", "w2", "f9", "w9"}}},
		{"HDEL of all", [][]string{{"HDEL", "h", "f1", "f2", "f3"}}},
		{"DEL of 4", [][]string{{"DEL", "s1", "h", "l", "nosuch"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// (An undo journal never shows the after-state to a crash inside
			// the unit until the root's clear, its last store, is flushed.)
			if n := sweepScript(t, before, cmds(tc.unit)); n.olds == 0 || n.undone == 0 || n.undone == n.olds+n.news {
				t.Fatalf("sweep saw %d before-states, %d after-states, %d replays: it must crash both sides of the publish", n.olds, n.news, n.undone)
			}
		})
	}
}

// TestSingleOperationsTakeNoJournal: a SET, a GET, and a variadic write at its
// minimum arguments are single structure operations — the journal costs them
// one length compare, no fence, no flush — and a unit that does take the
// journal leaves the root clear behind it.
func TestSingleOperationsTakeNoJournal(t *testing.T) {
	sw := newSweeper(t)
	e := sw.create()
	for _, tc := range []struct {
		cmd       []string
		journaled bool
	}{
		{[]string{"SET", "k", "v"}, false},
		{[]string{"GET", "k"}, false},
		{[]string{"MSET", "k", "v"}, false},
		{[]string{"HSET", "h", "f", "v"}, false},
		{[]string{"RPUSH", "l", "a"}, false},
		{[]string{"INCR", "n"}, false},
		{[]string{"DEL", "n"}, false},
		{[]string{"MSET", "k", "v", "k2", "v"}, true},
		{[]string{"RPUSH", "l", "a", "b"}, true},
		{[]string{"HSET", "h", "f", "v", "g", "w"}, true},
		{[]string{"DEL", "k", "k2"}, true},
	} {
		if got := len(tc.cmd) > e.srv.cmds[tc.cmd[0]].oneOp; got != tc.journaled {
			t.Errorf("%v: journaled = %v, want %v", tc.cmd, got, tc.journaled)
		}
		e.play(t, [][]string{tc.cmd})
		if block, _ := e.heap.RootBytes(kvstore.RootJournal); block != 0 {
			t.Fatalf("%v left the journal published", tc.cmd)
		}
	}
	// The same SET through dispatch and straight into the store: the same
	// fences, and flushes within the ceiling (2 and 4, the rows CI gates as
	// kvstore.set.*; a block that straddles a line costs the fourth).
	cost := func(fn func()) (fences, flushes uint64) {
		s0 := e.heap.Region().Stats()
		fn()
		s1 := e.heap.Region().Stats()
		return s1.Fences - s0.Fences, s1.Flushes - s0.Flushes
	}
	df, dl := cost(func() { e.play(t, [][]string{{"SET", "k", "value-2"}}) })
	sf, sl := cost(func() { e.st.SetBytes(e.ctx.hd, []byte("k"), []byte("value-3")) })
	if df != 2 || sf != 2 || dl > 4 || sl > 4 {
		t.Fatalf("SET through dispatch: %d fences, %d flushes; into the store: %d, %d (want 2 fences, at most 4 flushes)", df, dl, sf, sl)
	}
}

// TestJournalOutOfMemoryAppliesNothing: when the before-image does not fit the
// heap the unit answers "out of memory" and none of it is applied.
func TestJournalOutOfMemoryAppliesNothing(t *testing.T) {
	sw := newSweeper(t)
	e := sw.create()
	big := strings.Repeat("x", 200<<10)
	e.play(t, [][]string{{"SET", "a", big}, {"SET", "b", big}, {"SET", "small", "1"}})
	old := e.dump(t, "before the units")
	for _, unit := range [][][]string{
		{{"MSET", "a", "1", "b", "2", "small", "3"}},
		{{"MULTI"}, {"SET", "small", "4"}, {"DEL", "a"}, {"DEL", "b"}, {"EXEC"}},
	} {
		var out bytes.Buffer
		e.ctx.w = newRespWriter(&out)
		for _, cmd := range unit {
			args := make([][]byte, len(cmd))
			for i, a := range cmd {
				args[i] = []byte(a)
			}
			e.srv.dispatch(e.ctx, args)
		}
		e.ctx.w.flush()
		if !strings.HasSuffix(out.String(), "-ERR out of memory\r\n") {
			t.Fatalf("%v answered %q, want out of memory", unit, out.String())
		}
		if got := e.dump(t, fmt.Sprintf("after %v", unit)); got != old {
			t.Fatalf("%v was refused but applied:\n%s", unit, got)
		}
		if e.ctx.cs.inTxn {
			t.Fatal("the refused EXEC left the connection in a transaction")
		}
	}
}

// TestNewShardedWantsARallocHeap: every shard's units are journaled, so a
// backend whose allocator has no Ralloc heap behind it is refused at once.
func TestNewShardedWantsARallocHeap(t *testing.T) {
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "is not a Ralloc heap's") {
			t.Fatalf("NewSharded over a foreign allocator: recovered %v", r)
		}
	}()
	NewSharded([]ShardBackend{{Alloc: struct{ alloc.Allocator }{}}}, Config{})
}
