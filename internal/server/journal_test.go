package server

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// The unit-atomicity sweep: a multi-operation unit is crashed at EVERY store
// it makes — the journal's block, its publish, each command, the clear — on a
// strict crash-sim region (nothing survives but what was flushed), the heap
// is recovered, the server replays the journal, and the keys must be as they
// were before the unit or as they are after it, never a mix. One crash point
// per unit is then crashed again at every store of the replay. A unit is a
// script; sweepUnit is the whole driver (ROADMAP item 4's harness can take the
// table as it stands).

// crashEnv is one incarnation of a served heap on a crash-sim region.
type crashEnv struct {
	heap *ralloc.Heap
	st   *kvstore.Store
	srv  *Server
	ctx  *Ctx
}

// kill is the sentinel the armed store hook panics with.
type kill struct{}

// sweeper owns the hook every region of a sweep is created with.
type sweeper struct {
	t      *testing.T
	cfg    ralloc.Config
	armed  int // panic at this many stores from now; 0 = disarmed
	stores int // stores seen since the last arm
	replay int // arm this at the next start's journal replay; 0 = do not

	workers int // recovery workers of every restart
}

func newSweeper(t *testing.T, workers int) *sweeper {
	sw := &sweeper{t: t, workers: workers}
	sw.cfg = ralloc.Config{SBRegion: 1 << 20, GrowthChunk: 64 << 10, Shards: 1, Pmem: pmem.Config{Mode: pmem.ModeCrashSim, StoreHook: func() {
		// Disarmed it only reads: recovery's workers store side by side.
		if sw.armed != 0 {
			if sw.stores++; sw.stores == sw.armed {
				sw.armed = 0
				panic(kill{})
			}
		}
	}}}
	return sw
}

func (sw *sweeper) arm(n int) { sw.armed, sw.stores = n, 0 }

// killed runs fn and reports whether the armed hook killed it.
func (sw *sweeper) killed(fn func()) (dead bool) {
	defer func() {
		sw.armed = 0
		if r := recover(); r != nil {
			if r != (kill{}) {
				panic(r)
			}
			dead = true
		}
	}()
	fn()
	return false
}

// create is the first start, on a fresh heap.
func (sw *sweeper) create() *crashEnv {
	sw.t.Helper()
	heap, _, err := ralloc.Open("", sw.cfg)
	if err != nil {
		sw.t.Fatal(err)
	}
	return sw.start(heap, false)
}

// open is a restart on region.
func (sw *sweeper) open(region *pmem.Region) *crashEnv {
	sw.t.Helper()
	heap, dirty, err := ralloc.Attach(region, sw.cfg)
	if err != nil {
		sw.t.Fatal(err)
	}
	return sw.start(heap, dirty)
}

// start is what cluster.openShard and the server do at a start: recover if
// dirty with the store's attach riding the trace, create or attach the store,
// build the server — which replays the journal.
func (sw *sweeper) start(heap *ralloc.Heap, dirty bool) *crashEnv {
	sw.t.Helper()
	a := heap.AsAllocator()
	root := heap.GetRoot(kvstore.RootStore, nil)
	var at *kvstore.Attaching
	if dirty {
		if root != 0 {
			at = kvstore.BeginAttach(a, root, 0)
			heap.GetRoot(kvstore.RootStore, at.Filter())
		}
		heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
		if _, err := heap.RecoverParallel(sw.workers); err != nil {
			sw.t.Fatal(err)
		}
	}
	e := &crashEnv{heap: heap}
	switch {
	case at != nil:
		e.st = at.Finish()
	case root == 0:
		e.st, root = kvstore.Open(a, a.NewHandle(), 64)
		heap.SetRoot(kvstore.RootStore, root)
	default:
		e.st = kvstore.Attach(a, root)
	}
	e.st.SetClock(func() int64 { return 1_000_000 })
	if sw.replay != 0 {
		sw.arm(sw.replay)
		sw.replay = 0
	}
	e.srv = New(a, e.st, Config{})
	e.ctx = &Ctx{s: e.srv, hd: a.NewHandle(), w: newRespWriter(io.Discard), cs: &connState{}}
	return e
}

// play dispatches a script; every command must answer without an error reply.
func (e *crashEnv) play(t *testing.T, script [][]string) {
	t.Helper()
	for _, cmd := range script {
		args := make([][]byte, len(cmd))
		for i, a := range cmd {
			args[i] = []byte(a)
		}
		errs := e.ctx.w.errs
		e.srv.dispatch(e.ctx, args)
		if e.ctx.w.errs != errs {
			t.Fatalf("%.80v answered an error", cmd)
		}
	}
}

// dump renders the whole keyspace canonically — type, deadline, value — and
// checks Len against the walk on the way.
func (e *crashEnv) dump(t *testing.T) string {
	t.Helper()
	var keys []string
	e.st.Scan(func(k []byte, _ kvstore.Type) bool { keys = append(keys, string(k)); return true })
	if e.st.Len() != len(keys) {
		t.Fatalf("Len() = %d, the walk finds %d keys", e.st.Len(), len(keys))
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		key := []byte(k)
		fmt.Fprintf(&b, "%s %v @%d:", k, e.st.TypeOf(key), e.st.ExpireAt(key))
		switch e.st.TypeOf(key) {
		case kvstore.TypeString:
			v, _, _ := e.st.GetBytes(key)
			fmt.Fprintf(&b, " %q", v)
		case kvstore.TypeHash:
			fields, values, _ := e.st.HGetAll(key)
			pairs := make([]string, len(fields))
			for i := range fields {
				pairs[i] = fmt.Sprintf("%q=%q", fields[i], values[i])
			}
			sort.Strings(pairs)
			fmt.Fprintf(&b, " %v", pairs)
		case kvstore.TypeList:
			elems, _ := e.st.LRange(key, 0, -1)
			fmt.Fprintf(&b, " %q", elems)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// leaks closes the heap (every cache goes back) and reports the blocks that
// are allocated beyond the reachable ones.
func (e *crashEnv) leaks(t *testing.T) int64 {
	t.Helper()
	if err := e.heap.Close(); err != nil {
		t.Fatal(err)
	}
	e.heap.GetRoot(kvstore.RootStore, e.st.Filter())
	e.heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
	chk, err := e.heap.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	reachable, _ := e.heap.Trace()
	return int64(chk.AllocatedBlks) - int64(reachable)
}

// sweepUnit is the driver: before builds the keyspace the unit starts from,
// unit is the unit under test (one command, or MULTI … EXEC).
func sweepUnit(t *testing.T, workers int, before, unit [][]string) {
	sw := newSweeper(t, workers)
	// The before-state as a clean image every crash point starts from.
	e := sw.create()
	e.play(t, before)
	old := e.dump(t)
	if err := e.heap.Close(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := e.heap.Region().Save(&img); err != nil {
		t.Fatal(err)
	}
	fresh := func() *pmem.Region {
		r, err := pmem.LoadRegion(bytes.NewReader(img.Bytes()), sw.cfg.Pmem)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	e = sw.open(fresh())
	e.play(t, unit)
	neu := e.dump(t)
	if neu == old {
		t.Fatal("the unit changes nothing: the sweep would prove nothing")
	}
	if n := e.leaks(t); n != 0 {
		t.Fatalf("the uncrashed unit leaks %d blocks", n)
	}

	// crashAt runs the unit to its n-th store, crashes the machine, and
	// returns the region — nil once n is past the unit's last store.
	crashAt := func(n int) *pmem.Region {
		region := fresh()
		e := sw.open(region)
		sw.arm(n)
		if !sw.killed(func() { e.play(t, unit) }) {
			return nil
		}
		if err := region.Crash(); err != nil {
			t.Fatal(err)
		}
		return region
	}
	// (An undo journal never shows the after-state to a crash inside the
	// unit: until the root's clear is flushed — the unit's last store — the
	// restart rolls back.)
	undone, lastUndone, olds, news := 0, 0, 0, 0
	for n := 1; ; n++ {
		region := crashAt(n)
		if region == nil {
			break
		}
		e := sw.open(region)
		switch got := e.dump(t); got {
		case old:
			olds++
		case neu:
			news++
		default:
			t.Fatalf("crash at store %d of the unit: the keys are neither the before-state nor the after-state\n--- got\n%s--- before\n%s--- after\n%s", n, got, old, neu)
		}
		if e.srv.unitsUndone.Load() == 1 {
			undone, lastUndone = undone+1, n
		}
		if n := e.leaks(t); n != 0 {
			t.Fatalf("crash at store %d of the unit: %d blocks leaked", n, n)
		}
	}
	if olds == 0 || undone == 0 || undone == olds+news {
		t.Fatalf("sweep saw %d before-states, %d after-states, %d replays: it must crash both sides of the publish", olds, news, undone)
	}

	// Once more, crashing inside the replay: the latest crash point that
	// still replays has the whole unit applied, so the replay undoes the
	// most; kill it at each of its stores, crash, and start again.
	replays := 0
	for m := 1; ; m++ {
		region := crashAt(lastUndone)
		sw.replay = m // recovery's own stores are ralloc's sweeps' business
		if !sw.killed(func() { sw.open(region) }) {
			break
		}
		if err := region.Crash(); err != nil {
			t.Fatal(err)
		}
		e := sw.open(region)
		if got := e.dump(t); got != old {
			t.Fatalf("crash at store %d of the replay: the keys are not the before-state\n--- got\n%s--- before\n%s", m, got, old)
		}
		if n := e.leaks(t); n != 0 {
			t.Fatalf("crash at store %d of the replay: %d blocks leaked", m, n)
		}
		replays++
	}
	t.Logf("unit crashed at %d stores (%d old, %d new, %d replayed); the replay at %d", olds+news, olds, news, undone, replays)
}

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
			for _, workers := range []int{1, 4} {
				sweepUnit(t, workers, before, tc.unit)
			}
		})
	}
}

// TestSingleOperationsTakeNoJournal: a SET, a GET, and a variadic write at its
// minimum arguments are single structure operations — the journal costs them
// one length compare, no fence, no flush — and a unit that does take the
// journal leaves the root clear behind it.
func TestSingleOperationsTakeNoJournal(t *testing.T) {
	sw := newSweeper(t, 1)
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
	sw := newSweeper(t, 1)
	e := sw.create()
	big := strings.Repeat("x", 200<<10)
	e.play(t, [][]string{{"SET", "a", big}, {"SET", "b", big}, {"SET", "small", "1"}})
	old := e.dump(t)
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
		if got := e.dump(t); got != old {
			t.Fatalf("%v was refused but applied:\n%s", unit, got)
		}
		if e.ctx.cs.inTxn {
			t.Fatal("the refused EXEC left the connection in a transaction")
		}
	}
}
