package server

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// The kill driver: every kill-and-restart test of the served keyspace is a
// row of runKillRow. Each client owns its keys and runs a seeded script of
// ops — one command, or the commands of one MULTI/EXEC — pipelining up to
// depth of them, and the driver records when each op was sent and whether it
// was answered. The server is killed mid-traffic, or once the scripts end,
// and restarted, as many times as the row says; after each restart every
// client's keys are read back and judged by one oracle (judge): they must be
// the state after some prefix of the client's ops that covers every answered
// one — durable linearizability for keys one client writes. Then the server
// must serve a transaction and both ends of every list, and hold the same
// state across a clean stop and start. A row kills one of two servers: the
// real ralloc-serve on a mapped heap file by SIGKILL (proc), or a server in
// this process on a strict crash-sim heap by Abort and a power failure
// (memServer), which restarts through the crash sweep's attach (attachStore)
// — or, when the heap has a file, by Abort alone, the restart loading the
// last SAVE's image (cutAtSave).

// TestCrashRestartUnderLiveTraffic: SETs and overwrites on a bounded store,
// killed in process mid-traffic.
func TestCrashRestartUnderLiveTraffic(t *testing.T) { runKillRow(t, setRow) }

// TestObjectCrashRestartUnderLiveTraffic: HSETs and RPUSHes among SAVEs,
// killed in process mid-traffic.
func TestObjectCrashRestartUnderLiveTraffic(t *testing.T) { runKillRow(t, objectRow) }

// TestTTLStressRaceRestart: SET, PSETEX, GET, PEXPIRE, DEL and SAVE against
// a live expiry cycle on a bounded store, killed in process.
func TestTTLStressRaceRestart(t *testing.T) { runKillRow(t, ttlStressRow) }

// TestE2ESIGKILLRestart: 10k pipelined SETs and 500 overwrites through the
// real binary, SIGKILLed once the last is answered — once with a SAVE
// between the two, whose backup the restart must not serve, and once with
// no SAVE at all.
func TestE2ESIGKILLRestart(t *testing.T) {
	t.Run("SAVE then more writes", func(t *testing.T) { runKillRow(t, sigkillRow(true)) })
	t.Run("no SAVE at all", func(t *testing.T) { runKillRow(t, sigkillRow(false)) })
}

// TestE2ETTLSIGKILLRestart: 10k pipelined SET, PSETEX and SETEX with
// deadlines due before the kill and an hour or two away, through the real
// binary with no SAVE.
func TestE2ETTLSIGKILLRestart(t *testing.T) { runKillRow(t, ttlRow) }

// TestE2ETxnSIGKILLMidExec: 8-key MULTI/EXEC, 8-key MSET and 3-element
// RPUSH units through the real binary, SIGKILLed mid-traffic eight times
// with no SAVE: the undo journal must roll a cut unit back.
func TestE2ETxnSIGKILLMidExec(t *testing.T) { runKillRow(t, unitRow) }

// TestSaveCheckpointAndReopenAfterKill: on a crash-sim heap with a file, 500
// SETs, a SAVE and one SET more, then a kill: the restart loads the SAVE's
// image, which holds the 500 and not the one after.
func TestSaveCheckpointAndReopenAfterKill(t *testing.T) { runKillRow(t, saveRow) }

// TestOnlineSaveUnderTrafficAndReopenAfterKill: four clients SET while one of
// them SAVEs, then a kill: the image holds every write answered before the
// SAVE was sent, and of the writes that raced its copy a prefix per client.
func TestOnlineSaveUnderTrafficAndReopenAfterKill(t *testing.T) { runKillRow(t, onlineSaveRow) }

// killRow is one kill test.
type killRow struct {
	inProcess bool
	clients   int
	script    func(g, i int, rng *rand.Rand) [][]string // op i of client g
	ops       int                                       // a script's length; 0: it runs until the kill
	depth     int                                       // the ops a client pipelines
	after     time.Duration                             // the kill comes this long after the scripts end, or after they start if they do not end
	kills     int                                       // kills and restarts; 0: one
	file      bool                                      // in process, the heap has a file: a restart loads the last SAVE's image
	expire    time.Duration                             // the active expiry cycle's period; 0: the binary's default, none in process
	bound     uint64                                    // in process, the store's byte budget; 0: none
	seed      uint64
}

const (
	killBuckets  = 8192
	expireSample = 200
	minAnswered  = 20 // per client and kill, or the traffic is too thin to mean anything
)

var setRow = killRow{inProcess: true, clients: 4, script: setScript, depth: 1,
	after: 300 * time.Millisecond, bound: 24 << 20, seed: 1}

var objectRow = killRow{inProcess: true, clients: 4, script: objectScript, depth: 1,
	after: 300 * time.Millisecond, seed: 2}

var ttlStressRow = killRow{inProcess: true, clients: 4, script: ttlStressScript, depth: 1,
	after: 300 * time.Millisecond, expire: time.Millisecond, bound: 24 << 20, seed: 3}

func sigkillRow(save bool) killRow {
	return killRow{clients: 1, script: sigkillScript(save), ops: 10501, depth: 200, seed: 4}
}

var ttlRow = killRow{clients: 1, script: ttlScript, ops: 10000, depth: 250,
	after: 600 * time.Millisecond, expire: 20 * time.Millisecond, seed: 5}

var unitRow = killRow{clients: 6, script: unitScript, depth: 16, after: 100 * time.Millisecond, kills: 8, seed: 6}

var saveRow = killRow{inProcess: true, file: true, clients: 1, script: saveScript, ops: 502, depth: 1, seed: 7}

var onlineSaveRow = killRow{inProcess: true, file: true, clients: 4, script: saveScript, ops: 2000, depth: 1, seed: 8}

func one(cmd ...string) [][]string { return [][]string{cmd} }

// saveScript SETs new keys; client 0's 501st op is a SAVE.
func saveScript(g, i int, _ *rand.Rand) [][]string {
	if g == 0 && i == 500 {
		return one("SAVE")
	}
	return one("SET", fmt.Sprintf("s%d-%06d", g, i), fmt.Sprintf("v%d-%06d", g, i))
}

// setScript SETs a new key, or one time in four overwrites an earlier one.
func setScript(g, i int, rng *rand.Rand) [][]string {
	k := i
	if i > 0 && rng.IntN(4) == 0 {
		k = rng.IntN(i)
	}
	return one("SET", fmt.Sprintf("c%d-%06d", g, k), fmt.Sprintf("v%d-%06d", g, i))
}

// objectScript sets a new or an earlier field of the client's hash, or
// pushes onto its list; every 256th op SAVEs.
func objectScript(g, i int, rng *rand.Rand) [][]string {
	switch {
	case i%256 == 255:
		return one("SAVE")
	case rng.IntN(2) == 0:
		return one("HSET", fmt.Sprintf("oh-%d", g), fmt.Sprintf("f%06d", rng.IntN(i+1)), fmt.Sprintf("hv%d-%06d", g, i))
	}
	return one("RPUSH", fmt.Sprintf("ol-%d", g), fmt.Sprintf("lv%d-%06d", g, i))
}

// ttlStressScript SETs immortal keys beside short-lived ones it reads,
// re-expires and deletes; every 512th op SAVEs.
func ttlStressScript(g, i int, rng *rand.Rand) [][]string {
	vol := func(j int) string { return fmt.Sprintf("vol%d-%06d", g, j) }
	if i%512 == 511 {
		return one("SAVE")
	}
	switch rng.IntN(5) {
	case 0:
		return one("SET", fmt.Sprintf("st%d-%06d", g, i), fmt.Sprintf("sv%d-%06d", g, i))
	case 1:
		return one("PSETEX", vol(i), strconv.Itoa(1+rng.IntN(20)), "tmp")
	case 2:
		return one("GET", vol(rng.IntN(i+1)))
	case 3:
		return one("PEXPIRE", vol(rng.IntN(i+1)), strconv.Itoa(1+rng.IntN(5)))
	}
	return one("DEL", vol(rng.IntN(i+1)))
}

// sigkillScript SETs 10k keys, SAVEs if save, and overwrites with the rest.
func sigkillScript(save bool) func(g, i int, rng *rand.Rand) [][]string {
	return func(g, i int, rng *rand.Rand) [][]string {
		switch {
		case i < 10000:
			return one("SET", fmt.Sprintf("e2e-%05d", i), fmt.Sprintf("val-%05d", i))
		case i == 10000 && save:
			return one("SAVE")
		}
		return one("SET", fmt.Sprintf("e2e-%05d", rng.IntN(10000)), fmt.Sprintf("post-save-%05d", i))
	}
}

// ttlScript writes keys immortal, with an hour or two to live, or with a
// deadline due 400ms later.
func ttlScript(g, i int, rng *rand.Rand) [][]string {
	k, v := fmt.Sprintf("e%05d", i), fmt.Sprintf("val-%05d", i)
	switch rng.IntN(4) {
	case 0:
		return one("SET", k, v)
	case 1:
		return one("PSETEX", k, "3600000", v)
	case 2:
		return one("PSETEX", k, "400", v)
	}
	return one("SETEX", k, "7200", v)
}

// unitScript: clients 0-3 run 8-key MULTI/EXECs and client 4 8-key MSETs,
// over 64 keys each, so a unit overwrites what earlier units wrote; client 5
// RPUSHes 3 elements at a time onto one of 8 lists. A push of several
// elements journals the list it pushes onto, whole.
func unitScript(g, i int, rng *rand.Rand) [][]string {
	b, val := rng.IntN(64), fmt.Sprintf("w%d-t%06d", g, i)
	var unit [][]string
	mset := []string{"MSET"}
	for j := range 8 {
		key := fmt.Sprintf("t%d-%02d", g, (b+j)%64)
		unit, mset = append(unit, []string{"SET", key, val}), append(mset, key, val)
	}
	switch p := fmt.Sprintf("p%06d-", i); {
	case g == 4:
		return [][]string{mset}
	case g == 5:
		return one("RPUSH", fmt.Sprintf("pushed-%d", b%8), p+"0", p+"1", p+"2")
	}
	return unit
}

// killServer is the server a row kills and restarts.
type killServer interface {
	dial(t *testing.T) *Client
	kill(t *testing.T)                // SIGKILL, or Abort and a power failure
	stop(t *testing.T)                // a clean stop, every client closed first
	restart(t *testing.T, dirty bool) // start again on the heap left, which must open dirty or clean
}

func runKillRow(t *testing.T, r killRow) {
	var srv killServer
	if r.inProcess {
		srv = newMemServer(t, r)
	} else {
		if testing.Short() {
			t.Skip("skipping subprocess e2e in -short mode")
		}
		args := []string{"-heapmb", "64", "-buckets", strconv.Itoa(killBuckets), "-checkpoint", "0"}
		if r.expire > 0 {
			args = append(args, "-expire-cycle", r.expire.String(), "-expire-sample", strconv.Itoa(expireSample))
		}
		dir := t.TempDir()
		srv = startProc(t, filepath.Join(dir, "kv.sock"), append([]string{"-heap", filepath.Join(dir, "kv.heap")}, args...)...)
	}
	hist, rngs := make([][]kop, r.clients), make([]*rand.Rand, r.clients)
	for g := range rngs {
		rngs[g] = rand.New(rand.NewPCG(r.seed, uint64(g)))
	}
	var ps []int
	for range max(r.kills, 1) {
		r.traffic(t, srv, hist, rngs)
		if r.file {
			cutAtSave(hist)
		}
		srv.restart(t, true)
		c := srv.dial(t)
		ps = verify(t, c, hist)
		c.Close()
		// What a restart holds happened: from now on it is history, and the
		// next restart must hold it too.
		for g, p := range ps {
			hist[g] = hist[g][:p]
			for i := range hist[g] {
				hist[g][i].answered = true
			}
		}
	}
	c := srv.dial(t)
	post, lists := serves(t, c, hist)
	c.Close()
	srv.stop(t)
	srv.restart(t, false)
	c = srv.dial(t)
	verify(t, c, append(hist, post))
	t.Logf("the last restart holds the first %v ops of each client; %d lists served at both ends", ps, lists)
	c.Close()
	srv.stop(t)
}

// traffic goes on with every client's script and kills the server; each
// client's ops are appended to hist.
func (r killRow) traffic(t *testing.T, srv killServer, hist [][]kop, rngs []*rand.Rand) {
	from, flushed := make([]int, r.clients), make(chan struct{}, 1)
	var clients sync.WaitGroup
	var seq atomic.Uint64
	for g := range r.clients {
		c := srv.dial(t)
		from[g] = len(hist[g])
		clients.Add(1)
		go func() {
			defer clients.Done()
			defer c.Close()
			hist[g] = r.run(c, g, hist[g], rngs[g], flushed, &seq)
		}()
	}
	if r.ops > 0 {
		clients.Wait()
	}
	time.Sleep(r.after)
	// The kill follows a batch sent after the sleep (the first signal may
	// be older): the server is most likely in the middle of a command then.
	for i := 0; r.ops == 0 && i < 2; i++ {
		select {
		case <-flushed:
		case <-time.After(time.Second):
		}
	}
	srv.kill(t)
	killed := time.Now().UnixMilli()
	clients.Wait()
	sent, answered, saves := make([]int, r.clients), make([]int, r.clients), 0
	for g, ops := range hist {
		for i := from[g]; i < len(ops); i++ {
			if !ops[i].answered {
				ops[i].done = killed
				continue
			}
			if answered[g]++; ops[i].err != nil {
				t.Fatalf("client %d op %d answered %v: %v", g, i, ops[i].err, ops[i])
			}
			if ops[i].cmds[0][0] == "SAVE" {
				saves++
			}
		}
		if sent[g] = len(ops) - from[g]; r.ops > 0 && answered[g] != r.ops || answered[g] < minAnswered {
			t.Fatalf("client %d: %d of %d ops answered before the kill", g, answered[g], sent[g])
		}
	}
	t.Logf("the clients sent %v ops, %v answered before the kill", sent, answered)
	if p, ok := srv.(*proc); ok && saves > 0 {
		heap := p.args[slices.Index(p.args, "-heap")+1]
		if _, err := os.Stat(heap + ".save"); err != nil {
			t.Fatalf("SAVE left no backup beside the heap: %v", err)
		}
	}
}

// cutAtSave makes each client's history what a restart from the image of
// the last answered SAVE holds: the ops sent before that SAVE was answered,
// of which those answered before it was sent are answered.
func cutAtSave(hist [][]kop) {
	var save kop
	for _, ops := range hist {
		for _, op := range ops {
			if op.answered && op.cmds[0][0] == "SAVE" && op.order[1] > save.order[1] {
				save = op
			}
		}
	}
	for g, ops := range hist {
		n := 0
		for ; n < len(ops) && ops[n].order[0] < save.order[1]; n++ {
			ops[n].answered = ops[n].answered && ops[n].order[1] < save.order[0]
		}
		hist[g] = ops[:n]
	}
}

// run goes on with client g's script over c, after ops, until it ends or
// the kill tears c down; it signals flushed after each batch it sends, and
// orders every send and answer of every client by seq.
func (r killRow) run(c *Client, g int, ops []kop, rng *rand.Rand, flushed chan<- struct{}, seq *atomic.Uint64) []kop {
	for r.ops == 0 || len(ops) < r.ops {
		first, sent, order := len(ops), time.Now().UnixMilli(), seq.Add(1)
		for len(ops)-first < max(r.depth, 1) && (r.ops == 0 || len(ops) < r.ops) {
			op := kop{cmds: r.script(g, len(ops), rng), sent: sent, order: [2]uint64{order}}
			ops = append(ops, op)
			if len(op.cmds) > 1 {
				op.cmds = append(append(one("MULTI"), op.cmds...), []string{"EXEC"})
			}
			for _, cmd := range op.cmds {
				if c.Send(cmd...) != nil {
					return ops
				}
			}
		}
		if c.Flush() != nil {
			return ops
		}
		select {
		case flushed <- struct{}{}:
		default:
		}
		for i := first; i < len(ops); i++ {
			if recvOp(c, &ops[i]) != nil {
				return ops
			}
			ops[i].order[1] = seq.Add(1)
		}
	}
	return ops
}

// recvOp reads op's answer; an error is the connection's.
func recvOp(c *Client, op *kop) error {
	n := len(op.cmds)
	if n > 1 {
		n += 2 // MULTI's +OK, a +QUEUED each, EXEC's array
	}
	for range n {
		rp, err := c.Recv()
		if err != nil {
			return err
		}
		for _, e := range append([]Reply{rp}, rp.Elems...) {
			if err := e.Err(); err != nil && op.err == nil {
				op.err = err
			}
		}
	}
	op.answered, op.done = true, time.Now().UnixMilli()
	return nil
}

// verify reads every client's keys back and judges them, and DBSIZE must
// come to the keys they hold. It returns each client's prefix.
func verify(t *testing.T, c *Client, hist [][]kop) []int {
	t.Helper()
	start := time.Now().UnixMilli()
	rs := make([]recovered, len(hist))
	held, lapse := int64(0), int64(0)
	reads := map[byte][2][]string{'s': {{"GET"}, {"PTTL"}}, 'h': {{"HGETALL"}, {"HLEN"}}, 'l': {{"LRANGE", "0", "-1"}, {"LLEN"}}}
	for g, ops := range hist {
		rs[g] = recovered{cells: map[string]read{}}
		keys, kinds := []string{}, map[string]byte{}
		for _, op := range ops {
			for _, cmd := range op.cmds {
				kind, ks := keysOf(cmd)
				for _, k := range ks {
					if _, seen := kinds[k]; !seen {
						keys, kinds[k] = append(keys, k), kind
					}
				}
			}
		}
		for base := 0; base < len(keys); base += 256 {
			// Each key is read whole, beside its PTTL or its count. A
			// failed Send fails the Flush.
			batch := keys[base:min(base+256, len(keys))]
			for _, k := range batch {
				for _, cmd := range reads[kinds[k]] {
					c.Send(append([]string{cmd[0], k}, cmd[1:]...)...)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, k := range batch {
				v, err1 := c.Recv()
				n, err2 := c.Recv()
				if err := errors.Join(err1, err2, v.Err(), n.Err()); err != nil {
					t.Fatalf("reading %s: %v", k, err)
				}
				switch kinds[k] {
				case 's':
					if v.Nil && n.Int != -2 {
						t.Fatalf("GET %s = nil but PTTL = %d", k, n.Int)
					}
					if v.Nil || n.Int == -2 { // absent, or its deadline passed between the two
						continue
					}
					rs[g].cells[k] = read{true, string(v.Bulk), n.Int}
					if n.Int > 0 && n.Int <= 60_000 {
						lapse = max(lapse, time.Now().UnixMilli()+n.Int)
						continue
					}
				case 'h':
					for i := 0; i+1 < len(v.Elems); i += 2 {
						rs[g].cells[k+"\x00"+string(v.Elems[i].Bulk)] = read{true, string(v.Elems[i+1].Bulk), -1}
					}
					if int(n.Int) != len(v.Elems)/2 {
						t.Fatalf("HLEN %s = %d, HGETALL finds %d fields", k, n.Int, len(v.Elems)/2)
					}
				case 'l':
					for i, e := range v.Elems {
						rs[g].cells[fmt.Sprintf("%s\x00%d", k, i)] = read{true, string(e.Bulk), -1}
					}
					if int(n.Int) != len(v.Elems) {
						t.Fatalf("LLEN %s = %d, the walk finds %d", k, n.Int, len(v.Elems))
					}
				}
				if kinds[k] == 's' || n.Int > 0 {
					held++
				}
			}
		}
	}
	end := time.Now().UnixMilli()
	ps := make([]int, len(hist))
	for g, ops := range hist {
		rs[g].start, rs[g].end = start, end
		p, err := judge(ops, rs[g])
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
		ps[g] = p
	}
	// A key read within a minute of its deadline is not counted, and DBSIZE
	// is read once the last such deadline has passed. A key past its
	// deadline counts until the expiry cycle reclaims it.
	time.Sleep(time.Until(time.UnixMilli(lapse + 1)))
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		n, err := c.DBSize()
		if err == nil && n == held {
			return ps
		}
		if err != nil || n < held || time.Now().After(deadline) {
			t.Fatalf("DBSIZE = %d, %v; the clients hold %d keys", n, err, held)
		}
	}
}

// serves checks that the restarted server takes a transaction, and pushes
// onto and pops both ends of every list the clients push onto. It returns
// the transaction as one more client's ops, and the lists served.
func serves(t *testing.T, c *Client, hist [][]kop) ([]kop, int) {
	t.Helper()
	unit := [][]string{{"SET", "post-kill", "alive"}, {"INCR", "post-ctr"}}
	if rps, err := c.Txn(unit...); err != nil || len(rps) != 2 || rps[0].Str != "OK" || rps[1].Int != 1 {
		t.Fatalf("post-restart Txn = %+v, %v", rps, err)
	}
	served := map[string]bool{}
	for _, ops := range hist {
		for _, op := range ops {
			if cmd := op.cmds[0]; cmd[0] == "RPUSH" && !served[cmd[1]] {
				k := cmd[1]
				served[k] = true
				rps, err := c.Txn([]string{"LPUSH", k, "post"}, []string{"RPUSH", k, "post"}, []string{"LPOP", k}, []string{"RPOP", k})
				if err != nil || string(rps[2].Bulk) != "post" || string(rps[3].Bulk) != "post" {
					t.Fatalf("both ends of %s after the restart: %+v, %v", k, rps, err)
				}
			}
		}
	}
	return []kop{{cmds: unit, answered: true}}, len(served)
}

// keysOf names the keys cmd writes or reads and their kind: 's' string, 'h'
// hash, 'l' list.
func keysOf(cmd []string) (byte, []string) {
	switch strings.ToUpper(cmd[0]) {
	case "SET", "PSETEX", "SETEX", "PEXPIRE", "GET", "INCR":
		return 's', cmd[1:2]
	case "DEL":
		return 's', cmd[1:]
	case "MSET":
		var keys []string
		for i := 1; i < len(cmd); i += 2 {
			keys = append(keys, cmd[i])
		}
		return 's', keys
	case "HSET":
		return 'h', cmd[1:2]
	case "RPUSH":
		return 'l', cmd[1:2]
	}
	return 0, nil
}

// The oracle.

// kop is one op of a client's script: one command, or the commands of one
// MULTI/EXEC. sent and done are the unix-ms times it was sent and answered
// — for an op in flight at the kill, unanswered, the kill's. err is an
// answer that was an error: the op changed nothing.
type kop struct {
	cmds       [][]string
	sent, done int64
	order      [2]uint64 // when it was sent and answered among every client's ops
	answered   bool
	err        error
}

func (op kop) String() string {
	if len(op.cmds) == 1 {
		return strings.Join(op.cmds[0], " ")
	}
	return fmt.Sprintf("MULTI %s ... (%d commands) EXEC", strings.Join(op.cmds[0], " "), len(op.cmds))
}

// recovered is what a restart serves of one client's keys, read between
// start and end (unix ms): a cell for each string key, hash field (key +
// "\x00" + field) and list element (key + "\x00" + index); a missing one is
// absent.
type recovered struct {
	cells      map[string]read
	start, end int64
}

// read is a cell as served: pttl is -1 for a hash field or list element.
type read struct {
	present bool
	val     string
	pttl    int64
}

// cell is the model of a cell. A deadline lies in [dlo, dhi], unix ms; dhi
// 0: no deadline.
type cell struct {
	present  bool
	val      string
	dlo, dhi int64
}

// model is one client's keys after some of its ops.
type model map[string]cell

// apply applies op to m and returns the cells it wrote.
func (m model) apply(op kop) (cells []string) {
	if op.err != nil {
		return nil
	}
	ms := func(s string, unit int64) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n * unit }
	for _, c := range op.cmds {
		switch strings.ToUpper(c[0]) {
		case "SET":
			m[c[1]] = cell{present: true, val: c[2]}
		case "INCR":
			x := m[c[1]]
			n, _ := strconv.Atoi(x.val)
			x.present, x.val = true, strconv.Itoa(n+1)
			m[c[1]] = x
		case "MSET":
			for i := 1; i+1 < len(c); i += 2 {
				m[c[i]] = cell{present: true, val: c[i+1]}
			}
		case "PSETEX":
			m[c[1]] = cell{true, c[3], op.sent + ms(c[2], 1), op.done + ms(c[2], 1)}
		case "SETEX":
			m[c[1]] = cell{true, c[3], op.sent + ms(c[2], 1000), op.done + ms(c[2], 1000)}
		case "PEXPIRE":
			// A key its deadline reached before the PEXPIRE keeps it: the
			// new bounds cover the old deadline and the new one both.
			if x := m[c[1]]; x.present {
				lo := op.sent + ms(c[2], 1)
				if x.dhi != 0 {
					lo = min(lo, x.dlo)
				}
				x.dlo, x.dhi = lo, op.done+ms(c[2], 1)
				m[c[1]] = x
			}
		case "DEL":
			for _, k := range c[1:] {
				m[k] = cell{}
			}
		case "HSET":
			for i := 2; i+1 < len(c); i += 2 {
				m[c[1]+"\x00"+c[i]] = cell{present: true, val: c[i+1]}
				cells = append(cells, c[1]+"\x00"+c[i])
			}
			continue
		case "RPUSH":
			// The list's own cell keeps its length, and reads absent.
			n, _ := strconv.Atoi(m[c[1]].val)
			for _, e := range c[2:] {
				cells = append(cells, fmt.Sprintf("%s\x00%d", c[1], n))
				m[cells[len(cells)-1]] = cell{present: true, val: e}
				n++
			}
			m[c[1]] = cell{val: strconv.Itoa(n)}
			continue
		}
		_, keys := keysOf(c)
		cells = append(cells, keys...)
	}
	return cells
}

// admits reports whether a restart reading between start and end may serve r
// where the model holds c: a deadline that had passed is absent, one that
// may have passed may be, and a live one reads the PTTL it has left.
func (c cell) admits(r read, start, end int64) bool {
	switch {
	case !c.present || c.dhi != 0 && c.dhi <= start:
		return !r.present
	case !r.present:
		return c.dhi != 0 && c.dlo <= end
	case c.dhi == 0:
		return r.val == c.val && r.pttl == -1
	}
	return r.val == c.val && r.pttl > 0 && c.dlo-end-1 <= r.pttl && r.pttl <= c.dhi-start+1
}

// judge returns the least p such that the state r recovered is the state after
// the client's first p ops, with every answered op among them: p counts from
// the first op unanswered at the kill to the last sent.
func judge(ops []kop, r recovered) (int, error) {
	answered := 0
	for answered < len(ops) && ops[answered].answered {
		answered++
	}
	got, m, bad := r.cells, model{}, map[string]bool{}
	check := func(c string) {
		if m[c].admits(got[c], r.start, r.end) {
			delete(bad, c)
		} else {
			bad[c] = true
		}
	}
	for _, op := range ops[:answered] {
		m.apply(op)
	}
	for c := range m {
		check(c)
	}
	for c := range got {
		check(c)
	}
	nearest, fewest := answered, len(bad)
	for p := answered; ; p++ {
		if len(bad) == 0 {
			return p, nil
		}
		if len(bad) < fewest {
			nearest, fewest = p, len(bad)
		}
		if p == len(ops) {
			break
		}
		for _, c := range m.apply(ops[p]) {
			check(c)
		}
	}
	return -1, explain(ops, got, r, answered, nearest)
}

// TestPrefixOracle holds judge to hand-written histories: each client op
// sent at 1000 and answered at 1001 (unix ms), the keys read back between
// 2000 and 2010.
func TestPrefixOracle(t *testing.T) {
	op := func(answered bool, cmds ...[]string) kop {
		return kop{cmds: cmds, sent: 1000, done: 1001, answered: answered}
	}
	set := func(k, v string) []string { return []string{"SET", k, v} }
	unit := func(v string) (cmds [][]string) {
		for j := range 8 {
			cmds = append(cmds, set(fmt.Sprint("k", j), v))
		}
		return cmds
	}
	strs := func(kv ...string) map[string]read {
		m := map[string]read{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = read{present: true, val: kv[i+1], pttl: -1}
		}
		return m
	}
	failed := op(true, set("a", "1"))
	failed.err = errors.New("ERR out of memory")
	pushes := []kop{op(true, []string{"RPUSH", "l", "a"}), op(true, []string{"RPUSH", "l", "b"}), op(true, []string{"RPUSH", "l", "c"})}
	for _, tc := range []struct {
		name string
		ops  []kop
		got  recovered
		want int    // the prefix; -1: rejected
		says string // what the rejection says
	}{
		{"an acknowledged SET lost", []kop{op(true, set("a", "1")), op(true, set("b", "2"))},
			recovered{cells: strs("a", "1")}, -1, "an acknowledged write lost"},
		{"a torn 8-key unit", []kop{op(true, unit("u0")...), op(false, unit("u1")...)},
			recovered{cells: strs("k0", "u1", "k1", "u1", "k2", "u1", "k3", "u0", "k4", "u0", "k5", "u0", "k6", "u0", "k7", "u0")}, -1, "torn: 3 of its 8"},
		{"a value never sent", []kop{op(true, set("a", "1"))},
			recovered{cells: strs("a", "x")}, -1, `a = "x": a value no op wrote there`},
		{"an expired key brought back", []kop{op(true, []string{"PSETEX", "a", "10", "v"})},
			recovered{cells: map[string]read{"a": {true, "v", 5}}}, -1, "an expired key brought back"},
		{"a deadline moved", []kop{op(true, []string{"PSETEX", "a", "3600000", "v"})},
			recovered{cells: map[string]read{"a": {true, "v", 3_600_000}}}, -1, `a = "v" with PTTL 3600000, but its deadline lies in [3601000, 3601001]`},
		{"a list with a missing middle push", pushes,
			recovered{cells: strs("l\x000", "a", "l\x001", "c")}, -1, "l.2 = absent: an acknowledged write lost"},
		{"an unacknowledged suffix present", []kop{op(true, set("a", "1")), op(false, set("b", "2")), op(false, set("c", "3"))},
			recovered{cells: strs("a", "1", "b", "2")}, 2, ""},
		{"an unacknowledged suffix absent", []kop{op(true, set("a", "1")), op(false, set("b", "2")), op(false, set("c", "3"))},
			recovered{cells: strs("a", "1")}, 1, ""},
		{"an error answer changes nothing", []kop{failed}, recovered{}, 1, ""},
		{"a live deadline counting down", []kop{op(true, []string{"PSETEX", "a", "3600000", "v"})},
			recovered{cells: map[string]read{"a": {true, "v", 3_598_995}}}, 1, ""},
		{"a torn push", []kop{op(false, []string{"RPUSH", "l", "a", "b", "c"})},
			recovered{cells: strs("l\x000", "a", "l\x001", "b")}, -1, "torn: 2 of its 3"},
		{"every push, in order", pushes, recovered{cells: strs("l\x000", "a", "l\x001", "b", "l\x002", "c")}, 3, ""},
	} {
		tc.got.start, tc.got.end = 2000, 2010
		p, err := judge(tc.ops, tc.got)
		if p != tc.want || tc.want < 0 && !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: judge = %d, %v; want %d, %q", tc.name, p, err, tc.want, tc.says)
		}
	}
}

// explain says where the state after the first p ops, the nearest to what was
// recovered, differs from it, and what each difference shows.
func explain(ops []kop, got map[string]read, r recovered, answered, p int) error {
	got = maps.Clone(got)
	wrote := map[string]map[string]int{} // cell -> value -> the op that wrote it
	m, all, cells := model{}, model{}, make([][]string, len(ops))
	for i, op := range ops {
		cells[i] = all.apply(op)
		for _, c := range cells[i] {
			if wrote[c] == nil {
				wrote[c] = map[string]int{}
			}
			wrote[c][all[c].val] = i
			if _, ok := got[c]; !ok {
				got[c] = read{}
			}
		}
		if i < p {
			m.apply(op)
		}
	}
	var diffs []string
	for c, g := range got {
		want, name := m[c], strings.ReplaceAll(c, "\x00", ".")
		if by, ok := wrote[c][want.val]; want.admits(g, r.start, r.end) {
			continue
		} else if _, sent := wrote[c][g.val]; g.present && !sent {
			diffs = append(diffs, fmt.Sprintf("%s = %q: a value no op wrote there", name, g.val))
		} else if g.present && want.present && want.dhi != 0 && want.dhi <= r.start {
			diffs = append(diffs, fmt.Sprintf("%s = %q: an expired key brought back, its deadline passed before the kill", name, g.val))
		} else if g.present && g.val == want.val {
			diffs = append(diffs, fmt.Sprintf("%s = %q with PTTL %d, but its deadline lies in [%d, %d] (0: none)", name, g.val, g.pttl, want.dlo, want.dhi))
		} else if want.present && ok && by < answered {
			diffs = append(diffs, fmt.Sprintf("%s = %s: an acknowledged write lost, op %d: %v", name, show(g), by, ops[by]))
		} else {
			diffs = append(diffs, fmt.Sprintf("%s = %s, want %s", name, show(g), show(read{want.present, want.val, -1})))
		}
	}
	// A unit is torn where some of its cells hold its values and others
	// older ones; a cell a later op wrote says nothing.
	for i := answered; i < len(ops); i++ {
		applied, older := 0, 0
		for _, c := range cells[i] {
			switch by, ok := wrote[c][got[c].val]; {
			case ok && by == i:
				applied++
			case !ok || by < i:
				older++
			}
		}
		if applied > 0 && older > 0 {
			diffs = append(diffs, fmt.Sprintf("op %d torn: %d of its %d writes recovered: %v", i, applied, len(cells[i]), ops[i]))
		}
	}
	slices.Sort(diffs)
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("and %d more", len(diffs)-8))
	}
	return fmt.Errorf("the state recovered follows no prefix of the %d ops sent, %d answered; the nearest, the first %d, differs at\n\t%s",
		len(ops), answered, p, strings.Join(diffs, "\n\t"))
}

func show(r read) string {
	if !r.present {
		return "absent"
	}
	return strconv.Quote(r.val)
}

// memServer is a server in this process on a strict crash-sim heap, killed
// by Abort and a power failure. With a file (path), SAVE writes the image a
// restart loads, and the kill is the Abort alone.
type memServer struct {
	row        killRow
	cfg        ralloc.Config
	heap       *ralloc.Heap
	root       uint64
	srv        *Server
	sock, path string
}

func newMemServer(t *testing.T, r killRow) *memServer {
	dir := t.TempDir()
	s := &memServer{row: r, sock: filepath.Join(dir, "kv.sock"),
		cfg: ralloc.Config{SBRegion: 32 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}}
	if r.file {
		s.path = filepath.Join(dir, "kv.heap")
	}
	h, dirty, err := ralloc.Open(s.path, s.cfg)
	if err != nil || dirty {
		t.Fatalf("a fresh heap opened dirty = %v: %v", dirty, err)
	}
	a := h.AsAllocator()
	st, root := kvstore.OpenBounded(a, a.NewHandle(), killBuckets, r.bound)
	h.SetRoot(kvstore.RootStore, root)
	s.heap, s.root = h, root
	s.serve(t, st)
	t.Cleanup(func() { s.srv.Abort() })
	return s
}

func (s *memServer) serve(t *testing.T, st *kvstore.Store) {
	t.Helper()
	// Without a file, SAVE writes back the whole region under the cut-over
	// fence.
	be := RegionBackend(s.heap.AsAllocator(), st, s.heap.Region(), s.path, false)
	if s.path == "" {
		be.CheckpointOnline = saveUnderFence(func() error {
			s.heap.Region().Persist()
			return nil
		})
	}
	s.srv = NewSharded([]ShardBackend{be}, Config{ActiveExpiryInterval: s.row.expire, ActiveExpirySample: expireSample})
	l, err := net.Listen("unix", s.sock)
	if err != nil {
		t.Fatal(err)
	}
	go s.srv.Serve(l)
}

func (s *memServer) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial("unix", s.sock)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (s *memServer) kill(t *testing.T) {
	s.srv.Abort()
	if s.path == "" {
		if err := s.heap.Region().Crash(); err != nil {
			t.Fatal(err)
		}
	}
}

// restart attaches the heap, or opens its file — recovering a dirty one as
// the crash sweep's restartModes[seed%4] does — with the row's budget, and
// serves it.
func (s *memServer) restart(t *testing.T, dirty bool) {
	t.Helper()
	var h *ralloc.Heap
	var d bool
	var err error
	if s.path != "" {
		h, d, err = ralloc.Open(s.path, s.cfg)
	} else {
		h, d, err = ralloc.Attach(s.heap.Region(), s.cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if d != dirty {
		t.Fatalf("the heap attached dirty = %v, want %v", d, dirty)
	}
	if root := h.GetRoot(kvstore.RootStore, nil); root != s.root {
		t.Fatalf("the store's root moved across the restart: %#x -> %#x", s.root, root)
	}
	st := attachStore(t, h, d, restartModes[s.row.seed%uint64(len(restartModes))], s.row.bound)
	if st.Bounded() != (s.row.bound > 0) {
		t.Fatalf("the restarted store's bound: %v, want %v", st.Bounded(), s.row.bound > 0)
	}
	s.heap = h
	s.serve(t, st)
}

// stop shuts the server down, checks the heap's invariants and closes it.
func (s *memServer) stop(t *testing.T) {
	t.Helper()
	if err := s.srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.heap.Close(); err != nil {
		t.Fatal(err)
	}
}

// proc is ralloc-serve serving a unix socket; a row kills it by SIGKILL. It
// is killed when the test ends, if it still runs.
type proc struct {
	t    *testing.T
	sock string
	args []string
	cmd  *exec.Cmd
}

// startProc starts ralloc-serve on sock with args.
func startProc(t *testing.T, sock string, args ...string) *proc {
	p := &proc{t: t, sock: sock, args: append([]string{"-unix", sock}, args...)}
	p.start()
	return p
}

func (p *proc) start() {
	p.t.Helper()
	cmd := exec.Command(serveBinary(p.t), p.args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		p.t.Fatalf("starting ralloc-serve: %v", err)
	}
	p.cmd = cmd
	p.t.Cleanup(func() { cmd.Process.Kill() })
}

// dial dials the process until it answers.
func (p *proc) dial(t *testing.T) *Client {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		c, err := DialTimeout("unix", p.sock, time.Second)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server on %s did not come up: %v", p.sock, err)
		}
	}
}

func (p *proc) signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatal(err)
	}
}

func (p *proc) kill(*testing.T) {
	p.signal(syscall.SIGKILL)
	p.cmd.Wait()
}

// stop is the SHUTDOWN command. (A replica's restart in
// TestE2EReplicationFailover is the SIGTERM.)
func (p *proc) stop(t *testing.T) {
	t.Helper()
	c := p.dial(t)
	defer c.Close()
	if rp, err := c.Do("SHUTDOWN"); err != nil || rp.Str != "OK" {
		t.Fatalf("SHUTDOWN = %+v, %v", rp, err)
	}
	p.exit()
}

// restart starts the binary again, which must report the restart dirty or
// clean, and its heap mapped.
func (p *proc) restart(t *testing.T, dirty bool) {
	t.Helper()
	p.start()
	c := p.dial(t)
	defer c.Close()
	rp, err := c.Do("INFO", "persistence")
	want := "recovered_at_start:" + strconv.FormatBool(dirty)
	if err != nil || !strings.Contains(string(rp.Bulk), want) || !strings.Contains(string(rp.Bulk), "heap_backing:mmap") {
		t.Fatalf("INFO persistence lacks %s or heap_backing:mmap: %v, %v", want, rp.Text(), err)
	}
}

// exit waits for the process to exit cleanly.
func (p *proc) exit() {
	p.t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			p.t.Fatalf("server exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		p.t.Fatal("server did not exit in time")
	}
}

// serveBin is the ralloc-serve binary the subprocess drills run: linked
// once per test process, into a directory TestMain removes.
var serveBin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func serveBinary(t *testing.T) string {
	t.Helper()
	serveBin.once.Do(func() {
		if serveBin.dir, serveBin.err = os.MkdirTemp("", "ralloc-serve-e2e-"); serveBin.err != nil {
			return
		}
		serveBin.path = filepath.Join(serveBin.dir, "ralloc-serve")
		build := exec.Command("go", "build", "-o", serveBin.path, "repro/cmd/ralloc-serve")
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			serveBin.err = fmt.Errorf("go build ralloc-serve: %v\n%s", err, out)
		}
	})
	if serveBin.err != nil {
		t.Fatal(serveBin.err)
	}
	return serveBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin.dir != "" {
		os.RemoveAll(serveBin.dir)
	}
	os.Exit(code)
}
