package main

import (
	"fmt"
	"time"
)

// layerBinary takes the rows only the real ralloc-serve can give, from its
// INFO: a short bounded-cache session (evictions, active expiry, client-side
// tail latency), one SAVE, and a kill -9 restart (attach and recovery time as
// the server itself reports them).
func layerBinary(r *run, t *tracer) error {
	sc := r.sc
	defer r.pin()()
	s := &kvServer{r: r, bound: sc.cacheBoundMB, aside: true}
	var rings [][]op
	for i := 0; i < sc.conns; i++ {
		rings = append(rings, genStream("kv_cache", r.opt.seed, i, sc.records, sc.ringOps))
	}
	if _, err := t.timed("binary.setup", func() error { _, err := s.setUp(rings, true); return err }); err != nil {
		return err
	}
	counters := func() ([]float64, error) {
		return s.conns[0].c.info("", "evictions", "expired_reclaimed")
	}
	before, err := counters()
	if err != nil {
		return err
	}
	const windows = 4
	w := time.Duration(r.opt.seconds / 5 / windows * float64(time.Second))
	per := make([]windowed, len(s.conns))
	elapsed, err := t.timed("binary.cache_session", func() error {
		t0 := time.Now()
		return each(s.conns, func(i int, cn *conn) (err error) {
			per[i], err = cn.runWindows(t0, w, windows)
			return err
		})
	})
	if err != nil {
		return err
	}
	after, err := counters()
	if err != nil {
		return err
	}
	var m windowStats
	m.addWindows(per, w)
	for _, cn := range s.conns {
		m.total.add(cn.t)
	}
	r.tally.add(m.total)
	r.set("server.evictions_per_kop", (after[0]-before[0])*1000/float64(m.total.ops))
	r.set("server.expired_reclaimed_per_s", (after[1]-before[1])/elapsed.Seconds())
	r.set("client.batch_p99.us", quantileInt32(m.lat, 0.99)/1e3)
	r.set("client.batch_p999.us", quantileInt32(m.lat, 0.999)/1e3)
	r.doc.Samples["client.batch_p99.us"] = len(m.lat)

	c := s.conns[0].c
	_, err = t.timed("binary.save", func() error {
		rp, err := c.do("SAVE")
		if err == nil && rp.kind != '+' {
			err = fmt.Errorf("SAVE: %q", rp.data)
		}
		return err
	})
	if err != nil {
		return err
	}
	v, err := c.info("persistence", "last_checkpoint_total_us")
	if err != nil {
		return err
	}
	r.set("server.save_ms", v[0]/1e3)

	if err := s.kill(); err != nil {
		return err
	}
	if _, err = t.timed("binary.restart", func() (err error) { c, err = s.start(); return err }); err != nil {
		return err
	}
	defer s.proc.kill9()
	defer c.close()
	v, err = c.info("persistence", "last_attach_us", "recovery_total_us")
	if err != nil {
		return err
	}
	r.set("server.restart_attach_ms", v[0]/1e3)
	r.set("server.restart_recovery_ms", v[1]/1e3)
	return nil
}
