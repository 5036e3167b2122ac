package server

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// The crash sweep: a script runs on a strict crash-sim region (nothing
// survives but what was flushed) and the machine is crashed at EVERY store it
// makes. The oracle is the same script run once uncrashed: a crash image cut
// short after i whole steps must restart to state i or state i+1 of that run,
// under each of the four restarts — the recovery trace carrying the store's
// attach, or a walk after it, at one worker and at four. Every restart must
// also keep Len equal to the records the chains hold, leak no block, pass
// CheckInvariants, survive a full active-expiry drain unchanged, pop and push
// back both ends of every list and a field of every hash unchanged, and empty
// to Len 0 under FLUSHALL. When the undo journal rolled a unit back, the latest
// such image is crashed again at every store of its replay, and must restart
// to the state before the unit. sweepScript is the whole driver; the scripts
// are every write command's sample (persistwrite_test.go), the journal's units
// (journal_test.go) and the store's own scripts (TestScriptsSurviveEveryStore).

// crashEnv is one incarnation of a served heap on a crash-sim region.
type crashEnv struct {
	sw   *sweeper
	heap *ralloc.Heap
	st   *kvstore.Store
	srv  *Server
	ctx  *Ctx
}

// restartMode is one driver of dstruct.Recovery at a restart — the recovery
// trace itself (fused), or the bucket walk after a recovery that used the pure
// filter — with its recovery workers.
type restartMode struct {
	fused   bool
	workers int
}

var restartModes = []restartMode{{true, 1}, {true, 4}, {false, 1}, {false, 4}}

func (m restartMode) String() string {
	if m.fused {
		return fmt.Sprintf("fused/workers=%d", m.workers)
	}
	return fmt.Sprintf("trace-then-walk/workers=%d", m.workers)
}

// sweeper owns the hook every region of a sweep is created with, the store
// clock every incarnation reads, and the crash images already checked.
type sweeper struct {
	t       *testing.T
	cfg     ralloc.Config
	crash   alloctest.Crasher
	now     int64
	replay  int // arm this at the next start's journal replay; 0 = do not
	checked map[checkedImage]restarted
}

type checkedImage struct {
	hash uint64
	now  int64
}

// restarted is what a checked crash image restarts to.
type restarted struct {
	keys   string
	undone bool
}

var imageSeed = maphash.MakeSeed()

func newSweeper(t *testing.T) *sweeper {
	sw := &sweeper{t: t, now: 1_000_000, checked: map[checkedImage]restarted{}}
	sw.cfg = ralloc.Config{SBRegion: 1 << 20, GrowthChunk: 64 << 10, Shards: 1,
		Pmem: pmem.Config{Mode: pmem.ModeCrashSim, StoreHook: sw.crash.Hook}}
	return sw
}

func (sw *sweeper) clock() int64 { return sw.now }

// create is the first start, on a fresh heap.
func (sw *sweeper) create() *crashEnv {
	sw.t.Helper()
	heap, _, err := ralloc.Open("", sw.cfg)
	if err != nil {
		sw.t.Fatal(err)
	}
	return sw.start(heap, false, restartModes[0])
}

// load is a region holding the image img.
func (sw *sweeper) load(img []byte) *pmem.Region {
	sw.t.Helper()
	region, err := pmem.LoadRegion(bytes.NewReader(img), sw.cfg.Pmem)
	if err != nil {
		sw.t.Fatal(err)
	}
	return region
}

// open is a start on region; a dirty one recovers as mode says.
func (sw *sweeper) open(region *pmem.Region, mode restartMode) *crashEnv {
	sw.t.Helper()
	heap, dirty, err := ralloc.Attach(region, sw.cfg)
	if err != nil {
		sw.t.Fatal(err)
	}
	return sw.start(heap, dirty, mode)
}

// start is what cluster.openShard and the server do at a start: create the
// store on a fresh heap or attach it, build the server — which replays the
// journal.
func (sw *sweeper) start(heap *ralloc.Heap, dirty bool, mode restartMode) *crashEnv {
	sw.t.Helper()
	a, e := heap.AsAllocator(), &crashEnv{sw: sw, heap: heap}
	if heap.GetRoot(kvstore.RootStore, nil) == 0 {
		var root uint64
		e.st, root = kvstore.Open(a, a.NewHandle(), 64)
		heap.SetRoot(kvstore.RootStore, root)
	} else {
		e.st = attachStore(sw.t, heap, dirty, mode, 0)
	}
	e.st.SetClock(sw.clock)
	if sw.replay != 0 {
		sw.crash.Arm(sw.replay)
		sw.replay = 0
	}
	e.srv = New(a, e.st, Config{})
	e.ctx = &Ctx{s: e.srv, hd: a.NewHandle(), w: newRespWriter(io.Discard), cs: &connState{}}
	return e
}

// attachStore attaches the store of a heap that has one, with a byte budget
// of bound (0: none): a clean heap is walked, a dirty one recovered as mode
// says, the journal's block kept for the server's replay.
func attachStore(t *testing.T, heap *ralloc.Heap, dirty bool, mode restartMode, bound uint64) *kvstore.Store {
	t.Helper()
	a := heap.AsAllocator()
	root := heap.GetRoot(kvstore.RootStore, nil)
	if !dirty {
		return kvstore.AttachBounded(a, root, bound)
	}
	var at *kvstore.Attaching
	if mode.fused {
		at = kvstore.BeginAttach(a, root, bound)
		heap.GetRoot(kvstore.RootStore, at.Filter())
	} else {
		heap.GetRoot(kvstore.RootStore, kvstore.Filter(a, root))
	}
	heap.GetRoot(kvstore.RootJournal, ralloc.LeafFilter)
	if _, err := heap.RecoverParallel(mode.workers); err != nil {
		t.Fatal(err)
	}
	if at == nil {
		return kvstore.AttachBounded(a, root, bound)
	}
	return at.Finish()
}

// image closes a live heap and returns its image.
func (e *crashEnv) image(t *testing.T) []byte {
	t.Helper()
	if err := e.heap.Close(); err != nil {
		t.Fatal(err)
	}
	return crashImage(t, e.heap.Region())
}

// crashImage is what a crash leaves of region: Save writes a crash-sim
// region's persistent image, the flushed lines only.
func crashImage(t *testing.T, region *pmem.Region) []byte {
	t.Helper()
	img := bytes.NewBuffer(make([]byte, 0, 64+region.Size()))
	if err := region.Save(img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// step is one step of a script: a command dispatched as a client's, or a Go
// step that is no command (the clock moving, an active-expiry round).
type step struct {
	cmd []string
	fn  func(e *crashEnv)
}

func cmds(script [][]string) []step {
	steps := make([]step, len(script))
	for i, cmd := range script {
		steps[i].cmd = cmd
	}
	return steps
}

func advance(ms int64) step { return step{fn: func(e *crashEnv) { e.sw.now += ms }} }

// reclaim is an active-expiry round over every due key, in key order: the
// expiry cursor resumes wherever the last round stopped, and the sweep needs
// a script that makes the same stores every time it runs.
func reclaim() step {
	return step{fn: func(e *crashEnv) {
		due, _ := e.st.ExpiredCandidates(math.MaxInt32, math.MaxInt32)
		slices.SortFunc(due, bytes.Compare)
		for _, key := range due {
			e.st.ReclaimIfExpired(e.ctx.hd, key)
		}
	}}
}

// do runs one step; a command must answer without an error reply.
func (e *crashEnv) do(t *testing.T, s step) {
	t.Helper()
	if s.fn != nil {
		s.fn(e)
		return
	}
	args := make([][]byte, len(s.cmd))
	for i, a := range s.cmd {
		args[i] = []byte(a)
	}
	errs := e.ctx.w.errs
	e.srv.dispatch(e.ctx, args)
	if e.ctx.w.errs != errs {
		t.Fatalf("%.80v answered an error", s.cmd)
	}
}

func (e *crashEnv) play(t *testing.T, script [][]string) {
	t.Helper()
	for _, s := range cmds(script) {
		e.do(t, s)
	}
}

// records counts what the map's chains hold, expired records included — what
// Len must equal. Scan hides a record whose deadline has passed, so the walk
// runs with the clock before every deadline.
func (e *crashEnv) records() int {
	e.st.SetClock(func() int64 { return math.MinInt64 })
	defer e.st.SetClock(e.sw.clock)
	n := 0
	e.st.Scan(func([]byte, kvstore.Type) bool { n++; return true })
	return n
}

// dump renders the live keyspace canonically — type, deadline, value — and
// checks Len against the walk on the way; where names the state in a failure.
func (e *crashEnv) dump(t *testing.T, where string) string {
	t.Helper()
	if n := e.records(); e.st.Len() != n {
		t.Fatalf("%s: Len() = %d, the chains hold %d records", where, e.st.Len(), n)
	}
	var keys []string
	e.st.Scan(func(k []byte, _ kvstore.Type) bool { keys = append(keys, string(k)); return true })
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
			n, _ := e.st.HLen(key)
			fmt.Fprintf(&b, " %d %v", n, pairs)
		case kvstore.TypeList:
			elems, _ := e.st.LRange(key, 0, -1)
			n, _ := e.st.LLen(key)
			fmt.Fprintf(&b, " %d %q", n, elems)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// touch pushes onto and pops both ends of every list, and sets and deletes a
// field of every hash: whatever words a restart repaired, every path must
// work on them, and leave the keys as they were.
func (e *crashEnv) touch(t *testing.T) {
	t.Helper()
	var script [][]string
	e.st.Scan(func(k []byte, typ kvstore.Type) bool {
		switch key := string(k); typ {
		case kvstore.TypeList:
			script = append(script, []string{"LPUSH", key, "post"}, []string{"RPUSH", key, "post"}, []string{"LPOP", key}, []string{"RPOP", key})
		case kvstore.TypeHash:
			script = append(script, []string{"HSET", key, "post", "post"}, []string{"HDEL", key, "post"})
		}
		return true
	})
	e.play(t, script)
}

// leaks closes the heap (every cache goes back) and reports the blocks that
// are allocated beyond the reachable ones; CheckInvariants must pass.
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

// restarts starts the crash image img under every restart mode: the keys
// must be one of want, the same under every mode, and every other check of
// the sweep must hold. It returns which of want they are, and whether the
// journal rolled a unit back. A restart is a function of the image and the
// clock, and most stores change neither (a strict crash keeps flushed lines
// only), so an image already checked at this clock is checked once.
func (sw *sweeper) restarts(t *testing.T, where string, img []byte, want ...string) (which int, undone bool) {
	t.Helper()
	key := checkedImage{maphash.Bytes(imageSeed, img), sw.now}
	r, seen := sw.checked[key]
	for k, mode := range restartModes {
		if seen {
			break
		}
		e := sw.open(sw.load(img), mode)
		got := e.dump(t, fmt.Sprintf("%s, %v", where, mode))
		if k == 0 {
			r = restarted{got, e.srv.unitsUndone.Load() == 1}
		} else if got != r.keys {
			t.Fatalf("%s: %v restarts to other keys than %v\n--- got\n%s--- %v\n%s", where, mode, restartModes[0], got, restartModes[0], r.keys)
		}
		for e.st.ReclaimExpired(e.ctx.hd, 16) > 0 {
		}
		if drained := e.dump(t, fmt.Sprintf("%s, %v, drained", where, mode)); drained != got {
			t.Fatalf("%s, %v: the active-expiry drain changed the keys\n--- before\n%s--- after\n%s", where, mode, got, drained)
		}
		e.touch(t)
		if touched := e.dump(t, fmt.Sprintf("%s, %v, touched", where, mode)); touched != got {
			t.Fatalf("%s, %v: popping and pushing back changed the keys\n--- before\n%s--- after\n%s", where, mode, got, touched)
		}
		e.play(t, [][]string{{"FLUSHALL"}})
		if n, walked := e.st.Len(), e.records(); n != 0 || walked != 0 {
			t.Fatalf("%s, %v: after FLUSHALL Len() = %d, the chains hold %d", where, mode, n, walked)
		}
		if leaked := e.leaks(t); leaked != 0 {
			t.Fatalf("%s, %v: %d blocks leaked", where, mode, leaked)
		}
	}
	sw.checked[key] = r
	for which = 0; which < len(want) && r.keys != want[which]; which++ {
	}
	if which == len(want) {
		t.Fatalf("%s: the keys are none of the states the script allows\n--- got\n%s--- allowed\n%s",
			where, r.keys, strings.Join(want, "--- or\n"))
	}
	return which, r.undone
}

// sweepTally says what a sweep saw: the crash images that restarted to the
// state before their step (old) or after it (new), those whose unit the
// journal rolled back, and the crash points of the replay.
type sweepTally struct{ olds, news, undone, replays int }

// shortStride is the stride of the crash points under -short.
const shortStride = 8

// sweepScript is the driver: before builds the keyspace the script starts
// from, steps is the script under test.
func sweepScript(t *testing.T, before [][]string, steps []step) sweepTally {
	t.Helper()
	sw := newSweeper(t)
	e := sw.create()
	e.play(t, before)
	clean, t0 := e.image(t), sw.now

	// The uncrashed run: the state after each step, and the store each
	// step ends at.
	e = sw.open(sw.load(clean), restartModes[0])
	states, ends := []string{e.dump(t, "before the script")}, []int{0}
	for k, s := range steps {
		sw.crash.At(math.MaxInt, func() { e.do(t, s) })
		states, ends = append(states, e.dump(t, fmt.Sprintf("uncrashed, after step %d", k+1))), append(ends, ends[len(ends)-1]+sw.crash.Stores())
	}
	if states[len(steps)] == states[0] {
		t.Fatal("the script changes nothing: the sweep would prove nothing")
	}
	if leaked := e.leaks(t); leaked != 0 {
		t.Fatalf("the uncrashed script leaks %d blocks", leaked)
	}

	// Every store; under -short every shortStride-th, and the first and
	// the last of every step.
	var tally sweepTally
	var undoneImg []byte
	undoneStep, undoneNow := 0, int64(0)
	for n := 1; n <= ends[len(steps)]; n++ {
		if k := sort.SearchInts(ends, n); testing.Short() && n%shortStride != 0 && n != ends[k-1]+1 && n != ends[k] {
			continue
		}
		sw.now = t0
		region := sw.load(clean)
		e := sw.open(region, restartModes[0])
		done := 0
		if !sw.crash.At(n, func() {
			for _, s := range steps {
				e.do(t, s)
				done++
			}
		}) {
			t.Fatalf("the script made %d stores when uncrashed, fewer now", ends[len(steps)])
		}
		img := crashImage(t, region)
		which, undone := sw.restarts(t, fmt.Sprintf("crash at store %d (step %d)", n, done+1), img, states[done], states[done+1])
		if which == 0 {
			tally.olds++
		} else {
			tally.news++
		}
		if undone {
			tally.undone++
			undoneImg, undoneStep, undoneNow = img, done, sw.now
		}
	}

	// Once more, crashing inside the replay: the latest crash point that
	// still replays has the whole unit applied, so the replay undoes the
	// most; kill it at each of its stores, crash, and start again.
	for m := 1; undoneImg != nil; m++ {
		sw.now, sw.replay = undoneNow, m // recovery's own stores are ralloc's sweeps' business
		region := sw.load(undoneImg)
		if !sw.crash.Run(func() { sw.open(region, restartModes[0]) }) {
			break
		}
		sw.restarts(t, fmt.Sprintf("crash at store %d of the replay", m), crashImage(t, region), states[undoneStep])
		tally.replays++
	}
	t.Logf("%d crash points (%d old, %d new, %d replayed); the replay at %d; %d distinct images",
		tally.olds+tally.news, tally.olds, tally.news, tally.undone, tally.replays, len(sw.checked))
	return tally
}

// TestScriptsSurviveEveryStore sweeps the store's own scripts: every path that
// moves the key count, the hash/list mix, and expiry.
func TestScriptsSurviveEveryStore(t *testing.T) {
	var lenBase, objBase, ttlBase [][]string
	for i := range 40 { // chains with predecessors
		lenBase = append(lenBase, []string{"SET", fmt.Sprintf("base-%02d", i), "v"})
	}
	for i := range 6 {
		objBase = append(objBase,
			[]string{"HSET", fmt.Sprintf("h-%d", i), "f0", "v0", "f1", "v1", "f2", "v2", "f3", "v3"},
			[]string{"RPUSH", fmt.Sprintf("l-%d", i), "e0", "e1", "e2", "e3"},
			[]string{"SET", fmt.Sprintf("s-%d", i), "v"})
	}
	for i := range 10 { // immortal, far and near deadlines
		ttlBase = append(ttlBase,
			[]string{"SET", fmt.Sprintf("live-%d", i), "v"},
			[]string{"PSETEX", fmt.Sprintf("keep-%d", i), "1000000000", "v"},
			[]string{"PSETEX", fmt.Sprintf("dead-%d", i), "1000", "v"})
	}

	// len: SET, replace, DEL, HSET creating and extending, HDEL of a field
	// and of the last one, RPUSH creating and extending, LPOP to empty,
	// SET over an object.
	lenSteps := cmds([][]string{
		{"SET", "s0", "v"}, {"SET", "s1", "v"}, {"SET", "s2", "v"},
		{"SET", "s0", "w"}, {"SET", "base-07", "w"},
		{"DEL", "s1"}, {"DEL", "base-11"},
		{"HSET", "hash", "f1", "x"}, {"HSET", "hash", "f2", "x"}, {"HDEL", "hash", "f1"}, {"HDEL", "hash", "f2"},
		{"RPUSH", "list", "e"}, {"RPUSH", "list", "e"}, {"LPOP", "list"}, {"LPOP", "list"},
		{"HSET", "hash", "f1", "x"}, {"SET", "hash", "v"}, {"DEL", "hash"},
	})

	// obj: fields added, replaced and deleted, both ends of a list pushed
	// and popped, a hash created whole, SET over a hash, DEL of a list.
	var obj [][]string
	for i := range 3 {
		h, l := fmt.Sprintf("h-%d", i), fmt.Sprintf("l-%d", i)
		obj = append(obj,
			[]string{"HSET", h, "n", "v"}, []string{"HSET", h, "f0", "w"}, []string{"HDEL", h, "f1"},
			[]string{"LPUSH", l, "p"}, []string{"RPUSH", l, "p"}, []string{"LPOP", l}, []string{"RPOP", l},
			[]string{"HSET", fmt.Sprintf("hc-%d", i), "a", "1", "b", "2"})
	}
	obj = append(obj, []string{"SET", "hc-0", "overwritten"}, []string{"DEL", "l-2"})

	// ttl: the near deadlines pass, then keys are expired into the past
	// beside new TTL'd writes and the reclaim runs after each.
	ttlSteps := []step{advance(2000)}
	for i := range 3 {
		ttlSteps = append(ttlSteps, append(cmds([][]string{
			{"PEXPIRE", fmt.Sprintf("keep-%d", i), "-1"},
			{"PSETEX", fmt.Sprintf("new-%d", i), "1000000", "v"},
		}), reclaim())...)
	}

	for _, tc := range []struct {
		name   string
		before [][]string
		steps  []step
	}{
		{"len", lenBase, lenSteps},
		{"obj", objBase, cmds(obj)},
		{"ttl", ttlBase, ttlSteps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sweepScript(t, tc.before, tc.steps)
		})
	}
}
