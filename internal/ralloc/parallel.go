package ralloc

import "sync"

// Work sharing for a recovery run with several workers — the paper's stated
// future work (§6.4): "it would be straightforward ... to parallelize Step 5
// across persistent roots and Steps 6–9 across superblocks; we leave this to
// future work." The engine (gc.go) is the same at every worker count; this
// file only holds what more than one worker needs to balance the trace.
//
// A worker whose local stack grows past a threshold donates half of it to
// the pool; a worker that runs dry blocks on the pool. Termination is
// detected when every worker is waiting and the pool is empty, so tracing
// parallelizes *within* a single structure, not just across roots — a
// single deep tree still fans out once its branches enter the pool. (The
// sweep needs no pool: its units are known up front and handed out by an
// atomic cursor.)

// tracePool is the shared work pool of one multi-worker trace.
type tracePool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []traceItem
	workers int
	waiting int // workers inside take with nothing to do
}

func newTracePool(workers int) *tracePool {
	p := &tracePool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// donateThreshold is the local-stack size beyond which a worker shares half
// of its pending work; a dry worker takes a quarter of that at a time.
const donateThreshold = 256

// donate copies items into the pool and wakes idle workers.
func (p *tracePool) donate(items []traceItem) {
	p.mu.Lock()
	p.items = append(p.items, items...)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// take moves a batch of pooled work onto g's (empty) pending stack, blocking
// until some is available; it reports false once the trace is over.
func (p *tracePool) take(g *GC) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiting++
	for len(p.items) == 0 {
		if p.waiting >= p.workers {
			// Everyone is idle and the pool is empty, so nobody is left to
			// donate: trace done. waiting stays at (or, once leave has
			// run, above) workers, which tells every worker this wakes
			// the same.
			p.cond.Broadcast()
			return false
		}
		p.cond.Wait()
	}
	p.waiting--
	k := max(len(p.items)-donateThreshold/4, 0)
	g.pending = append(g.pending, p.items[k:]...)
	p.items = p.items[:k]
	return true
}

// leave takes a worker that has stopped out of the count, so that if it
// stopped by panicking the others still see the trace end (each re-raises
// the panic once they have). After a normal end every worker is waiting
// already, and waiting ≥ workers keeps it ended.
func (p *tracePool) leave() {
	p.mu.Lock()
	p.workers--
	p.mu.Unlock()
	p.cond.Broadcast()
}
