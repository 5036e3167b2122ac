package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The socket workloads: kv_read, kv_write, kv_cache and crash_recover all
// drive the real ralloc-serve binary over a unix socket, closed loop, with
// sc.conns connections each keeping one sc.depth-deep batch in flight.

// crashVersion marks values written by the crash cycles; stream SETs keep
// their versions below it, so a verified version cannot be a stale one.
const crashVersion = 0x8000

// conn is one closed-loop connection and the stream it plays.
type conn struct {
	c      *client
	ring   []op
	pos    int
	depth  int
	aside  bool // cache-aside: a nil GET queues a SET of that key
	refill []op
	batch  []op
	t      tally
}

func (cn *conn) nextBatch() []op {
	b := cn.batch[:0]
	for len(b) < cn.depth && len(cn.refill) > 0 {
		b = append(b, cn.refill[0])
		cn.refill = cn.refill[1:]
	}
	for len(b) < cn.depth {
		o := cn.ring[cn.pos%len(cn.ring)]
		if o.kind == opSet {
			o.arg &= crashVersion - 1
		}
		b = append(b, o)
		cn.pos++
	}
	cn.batch = b
	return b
}

// step plays one batch. In a cache workload a miss is an outcome, not a
// failure; everywhere else every key was loaded and must be found.
func (cn *conn) step() error {
	var onGet func(op, uint32, bool)
	if cn.aside {
		onGet = func(o op, _ uint32, found bool) {
			if !found {
				cn.refill = append(cn.refill, op{id: o.id, kind: opSet})
			}
		}
	}
	return cn.c.doBatch(cn.nextBatch(), &cn.t, !cn.aside, onGet)
}

// windowed is what one connection measured in the window phase.
type windowed struct {
	ops []uint64  // completed ops per window
	lat [][]int32 // batch round trips (ns) per window
}

// runWindows plays batches until n windows of length w have passed since t0.
func (cn *conn) runWindows(t0 time.Time, w time.Duration, n int) (windowed, error) {
	out := windowed{ops: make([]uint64, n), lat: make([][]int32, n)}
	for {
		tb := time.Now()
		if err := cn.step(); err != nil {
			return out, err
		}
		te := time.Now()
		i := int(te.Sub(t0) / w)
		if i >= n {
			return out, nil
		}
		out.ops[i] += uint64(len(cn.batch))
		out.lat[i] = append(out.lat[i], int32(te.Sub(tb)))
	}
}

// playOps sends a fixed op list in depth-sized batches.
func playOps(c *client, ops []op, depth int, t *tally, missFails bool, onGet func(op, uint32, bool)) error {
	for len(ops) > 0 {
		n := min(depth, len(ops))
		if err := c.doBatch(ops[:n], t, missFails, onGet); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// each runs fn once per connection, concurrently, and returns the first error.
func each(conns []*conn, fn func(i int, cn *conn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, cn)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// kvServer is the running system under test and the numbers that must be
// read from it before it is killed.
type kvServer struct {
	r      *run
	bound  int  // -boundmb
	aside  bool // cache-aside connections (kv_cache)
	proc   *serverProc
	conns  []*conn
	served bool      // the running incarnation has had windows measured on it
	rssMB  []float64 // VmHWM of every incarnation that served, read as it is killed
}

func (s *kvServer) heapPath() string { return filepath.Join(s.r.tmp, "kv.heap") }

// start execs the server and returns once it accepts connections.
func (s *kvServer) start() (*client, error) {
	p, err := startServer(s.r.bin, s.r.tmp, s.r.sc, s.bound)
	if err != nil {
		return nil, err
	}
	s.proc = p
	return p.connect(60 * time.Second)
}

// kill reads the incarnation's peak RSS, then kill -9s it. An incarnation
// that only loaded or only restarted has no part in rss_mb: an operator's
// peak is that of a server that serves.
func (s *kvServer) kill() error {
	for _, cn := range s.conns {
		cn.c.close()
	}
	s.conns = nil
	if s.served {
		rss, err := s.proc.peakRSSMB()
		if err != nil {
			return err
		}
		s.rssMB = append(s.rssMB, rss)
		s.served = false
	}
	s.proc.kill9()
	s.proc = nil
	return nil
}

// dial opens the run's connections on top of first (already connected).
func (s *kvServer) dial(first *client, rings [][]op) error {
	for i := 0; i < s.r.sc.conns; i++ {
		c := first
		if i > 0 {
			var err error
			if c, err = dialUnix(s.proc.sock); err != nil {
				return err
			}
		}
		cn := &conn{c: c, depth: s.r.sc.depth, aside: s.aside, batch: make([]op, 0, s.r.sc.depth)}
		if rings != nil {
			cn.ring = rings[i]
		}
		s.conns = append(s.conns, cn)
	}
	return nil
}

// setUp is one set-up as setup_s defines it: spawn the server, load every
// record over connection 0, then warm every connection up with the first
// warmOps ops of its stream.
func (s *kvServer) setUp(rings [][]op, warm bool) (time.Duration, error) {
	// Errors from Remove are "does not exist" on the first set-up.
	os.Remove(s.heapPath())
	t0 := time.Now()
	first, err := s.start()
	if err != nil {
		return 0, err
	}
	if err := s.dial(first, rings); err != nil {
		return 0, err
	}
	load := make([]op, s.r.sc.records)
	for i := range load {
		load[i] = op{id: uint32(i), kind: opSet}
	}
	var t tally
	if err := playOps(first, load, s.r.sc.depth, &t, true, nil); err != nil {
		return 0, fmt.Errorf("load: %w", err)
	}
	s.r.tally.add(t)
	if warm {
		if err := s.warmUp(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// warmUp plays the next warmOps ops of every connection's stream.
func (s *kvServer) warmUp() error {
	err := each(s.conns, func(_ int, cn *conn) error {
		for end := cn.pos + s.r.sc.warmOps; cn.pos < end; {
			if err := cn.step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// genShareLimit is the most of one core the load generator may use at the
// measured rate before the run is refused: the numbers must be the server's.
const genShareLimit = 0.25

// genCostNs times generating and encoding n ops of ring into a discarded
// buffer: the generator's own cost per op.
func genCostNs(ring []op, depth, n int) float64 {
	cn := &conn{ring: ring, depth: depth, batch: make([]op, 0, depth)}
	var buf []byte
	t0 := time.Now()
	for done := 0; done < n; done += depth {
		buf = buf[:0]
		for _, o := range cn.nextBatch() {
			buf = appendOp(buf, o)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func runKV(r *run) error {
	sc, name := r.sc, r.opt.workload
	defer r.pin()()
	s := &kvServer{r: r}
	if name == "kv_cache" {
		s.bound, s.aside = sc.cacheBoundMB, true
	}
	// crash_recover plays the 50/50 mix, but only once its cycles are over.
	mix, recovering := name, name == "crash_recover"
	if recovering {
		mix = "kv_write"
	}
	var rings [][]op
	for i := 0; i < sc.conns; i++ {
		rings = append(rings, genStream(mix, r.opt.seed, i, sc.records, sc.ringOps))
	}

	// A run is sc.setups rounds: set the server up afresh, then (kv_*)
	// measure a share of the windows on that instance. Medians are taken over
	// the windows of all rounds, so one instance's luck with memory placement
	// does not become the run's number.
	var setups []float64
	var m windowStats
	for i := 0; i < sc.setups; i++ {
		if s.proc != nil {
			if err := s.kill(); err != nil {
				return err
			}
		}
		d, err := s.setUp(rings, !recovering)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if !recovering {
			if err := s.measureWindows(&m, sc.windows/sc.setups); err != nil {
				return err
			}
		}
	}
	r.set("setup_s", median(setups))
	r.recordWindows("setup_s", setups)

	if recovering {
		// The cycles first; then the recovered server is warmed up and
		// measured like any other, on half the windows: does a heap rebuilt
		// by recovery serve as fast as one that never crashed?
		if err := s.crashCycles(sc.cycles, sc.cycleRestarts); err != nil {
			return err
		}
		for i, cn := range s.conns {
			cn.ring = rings[i]
		}
		if err := s.warmUp(); err != nil {
			return err
		}
		if err := s.measureWindows(&m, sc.windows/2); err != nil {
			return err
		}
	}
	if err := m.report(r, rings[0]); err != nil {
		return err
	}
	if err := s.spaceAmp(); err != nil {
		return err
	}
	if !recovering {
		if err := s.crashCycles(1, sc.restarts); err != nil {
			return err
		}
	}
	if err := s.kill(); err != nil {
		return err
	}
	// The median serving incarnation, not the highest: the Go heap of a server
	// whose live data is two 256 MB slices may or may not have collected
	// before it is killed.
	r.set("rss_mb", median(s.rssMB))
	r.recordWindows("rss_mb", s.rssMB)
	return nil
}

// windowStats accumulates the steady-state windows of every round of a run.
type windowStats struct {
	rates, p50s []float64 // per window
	lat         []int32   // every batch round trip
	total       tally
	cpu         float64 // CPU seconds of the system under test inside the windows
	selfCPU     float64 // CPU seconds of this process inside the windows (socket workloads)
}

// addWindows folds one round's per-connection (or per-goroutine) windows in.
func (m *windowStats) addWindows(per []windowed, w time.Duration) {
	for i := range per[0].ops {
		var ops uint64
		var lat []int32
		for _, p := range per {
			ops += p.ops[i]
			lat = append(lat, p.lat[i]...)
		}
		m.rates = append(m.rates, float64(ops)/w.Seconds())
		m.p50s = append(m.p50s, quantileInt32(lat, 0.5)/1e3)
		m.lat = append(m.lat, lat...)
	}
}

// setCommon sets the metrics every windowed workload derives the same way.
func (m *windowStats) setCommon(r *run) {
	r.set("ops_per_s", median(m.rates))
	r.set("lat_p50_us", median(m.p50s))
	r.set("cpu_us_per_op", m.cpu*1e6/float64(m.total.ops))
	r.recordWindows("ops_per_s", m.rates)
	r.recordWindows("lat_p50_us", m.p50s)
	r.doc.Samples["lat_p50_us"] = len(m.lat)
	r.doc.Extra["batch_p99.us"] = quantileInt32(m.lat, 0.99) / 1e3
}

// measureWindows measures n windows of seconds/sc.windows each on the running
// server and folds them into m.
func (s *kvServer) measureWindows(m *windowStats, n int) error {
	r, sc := s.r, s.r.sc
	w := time.Duration(r.opt.seconds / float64(sc.windows) * float64(time.Second))
	for _, cn := range s.conns {
		cn.t = tally{}
	}
	cpu0, err := s.proc.cpuSeconds()
	if err != nil {
		return err
	}
	self0 := selfCPUSeconds()
	per := make([]windowed, len(s.conns))
	t0 := time.Now()
	err = each(s.conns, func(i int, cn *conn) (err error) {
		per[i], err = cn.runWindows(t0, w, n)
		return err
	})
	if err != nil {
		return err
	}
	cpu1, err := s.proc.cpuSeconds()
	if err != nil {
		return err
	}
	s.served = true
	m.cpu += cpu1 - cpu0
	m.selfCPU += selfCPUSeconds() - self0
	for _, cn := range s.conns {
		m.total.add(cn.t)
	}
	m.addWindows(per, w)
	return nil
}

// report sets the kv_* metrics that come from the windows, and refuses the
// run if the generator itself was a material part of the load.
func (m *windowStats) report(r *run, ring []op) error {
	r.tally.add(m.total)
	m.setCommon(r)
	r.set("hit_ratio", float64(m.total.hits)/float64(m.total.gets))
	gen := genCostNs(ring, r.sc.depth, 1<<16)
	share := gen * median(m.rates) / float64(r.sc.conns) / 1e9
	r.doc.Extra["client.gen.ns"] = gen
	r.doc.Extra["client.gen_core_share"] = share
	// Generator and server share one CPU: this is the generator's part of it.
	r.doc.Extra["client.cpu_us_per_op"] = m.selfCPU * 1e6 / float64(m.total.ops)
	if share > genShareLimit {
		return fmt.Errorf("load generator needs %.0f%% of a core at the measured rate (limit %.0f%%): the numbers would measure the harness", share*100, genShareLimit*100)
	}
	return nil
}

// spaceAmp sets space_amp: heap bytes in use per byte of live key and value.
func (s *kvServer) spaceAmp() error {
	c := s.conns[0].c
	used, err := c.info("heap", "sb_used_bytes")
	if err != nil {
		return err
	}
	n, err := c.do("DBSIZE")
	if err != nil {
		return err
	}
	if n.kind != ':' || n.n <= 0 {
		return fmt.Errorf("DBSIZE: unexpected reply %c %d", n.kind, n.n)
	}
	s.r.set("space_amp", used[0]/float64(n.n*(keyLen+valLen)))
	return nil
}

// crashCycles runs the crash phase: per cycle, SET cycleSaved keys, SAVE, SET
// cycleUnsaved more (acked but not checkpointed), kill -9, restart, time the
// first correct GET, and re-read every key written in the cycle. A lost
// pre-SAVE key is a failure; a lost post-SAVE key only lowers durable_frac.
// Further restarts of a cycle kill the server again and time another start
// from the same image. It leaves the last incarnation running, connected.
func (s *kvServer) crashCycles(cycles, restarts int) error {
	r, sc := s.r, s.r.sc
	ids := shuffledIDs(r.opt.seed, sc.records)
	per := sc.cycleSaved + sc.cycleUnsaved
	if cycles*per > len(ids) {
		return fmt.Errorf("%d crash cycles of %d keys need more than %d records", cycles, per, len(ids))
	}
	var (
		t               tally
		firstMs, saveMs []float64
		acked, readable uint64
	)
	for cyc := 0; cyc < cycles; cyc++ {
		version := uint16(crashVersion + cyc + 1)
		mk := func(ids []uint32, kind opKind) []op {
			ops := make([]op, len(ids))
			for i, id := range ids {
				ops[i] = op{id: id, arg: version, kind: kind}
			}
			return ops
		}
		saved, unsaved := ids[cyc*per:cyc*per+sc.cycleSaved], ids[cyc*per+sc.cycleSaved:(cyc+1)*per]

		c := s.conns[0].c
		if err := playOps(c, mk(saved, opSet), sc.depth, &t, true, nil); err != nil {
			return fmt.Errorf("cycle %d: %w", cyc, err)
		}
		ts := time.Now()
		if rp, err := c.do("SAVE"); err != nil || rp.kind != '+' {
			return fmt.Errorf("cycle %d: SAVE: %v %q", cyc, err, rp.data)
		}
		saveMs = append(saveMs, ms(time.Since(ts)))
		if err := playOps(c, mk(unsaved, opSet), sc.depth, &t, true, nil); err != nil {
			return fmt.Errorf("cycle %d: %w", cyc, err)
		}
		acked += uint64(per)

		for k := 0; k < restarts; k++ {
			if err := s.kill(); err != nil {
				return err
			}
			first, err := s.start()
			if err != nil {
				return fmt.Errorf("cycle %d: restart: %w", cyc, err)
			}
			// First correct reply: a checkpointed key at this cycle's version.
			var got uint32
			if err := playOps(first, mk(saved[:1], opGet), 1, &t, true, func(_ op, v uint32, _ bool) { got = v }); err != nil {
				return fmt.Errorf("cycle %d: first GET: %w", cyc, err)
			}
			firstMs = append(firstMs, ms(time.Since(s.proc.started)))
			if got != uint32(version) {
				t.failed++
			}
			if err := s.dial(first, nil); err != nil {
				return err
			}
			if k > 0 {
				continue
			}
			// Re-read everything the cycle wrote.
			err = playOps(first, mk(saved, opGet), sc.depth, &t, true, func(_ op, v uint32, found bool) {
				if found && v == uint32(version) {
					readable++
				} else if found {
					t.failed++ // a checkpointed write came back stale
				}
			})
			if err != nil {
				return fmt.Errorf("cycle %d: verify: %w", cyc, err)
			}
			// In a cache a post-SAVE key may never have been in the image.
			err = playOps(first, mk(unsaved, opGet), sc.depth, &t, !s.aside, func(_ op, v uint32, found bool) {
				if found && v == uint32(version) {
					readable++
				}
			})
			if err != nil {
				return fmt.Errorf("cycle %d: verify: %w", cyc, err)
			}
		}
	}
	r.tally.add(t)
	r.set("restart_first_reply_ms", median(firstMs))
	r.set("durable_frac", float64(readable)/float64(acked))
	r.recordWindows("restart_first_reply_ms", firstMs)
	r.recordWindows("save_ms", saveMs)
	r.doc.Extra["acked_writes"] = float64(acked)
	r.doc.Extra["acked_writes_readable_after_kill"] = float64(readable)
	return nil
}
