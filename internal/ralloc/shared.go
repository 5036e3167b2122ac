package ralloc

import (
	"errors"
	"sync"

	"repro/internal/sizeclass"
)

// Sharing across processes (§4.5.2). The paper's model: a heap may be
// mapped by several mutually untrusting processes through a protected
// library; a *manager* process, notified by the OS when a sharer dies,
// initiates a blocking stop-the-world collection in a quiescent interval to
// reclaim whatever the dead process leaked — blocks allocated but not yet
// attached, detached but not yet freed, held in its thread caches, or
// sitting on limbo lists.
//
// This file models that protocol. A Manager tracks Processes; killing a
// process abandons its handles (exactly what a real crash does to
// thread-local state). Collect performs the stop-the-world pass, which is
// the recovery engine of gc.go with one difference: it pins the *live*
// processes' thread caches (their blocks are allocated even though no
// persistent root reaches them) before tracing from the persistent roots
// and rebuilding the allocator metadata — reclaiming everything the dead
// processes leaked while live processes keep working afterwards with their
// caches intact.

// Manager coordinates processes sharing one heap.
type Manager struct {
	h *Heap

	mu           sync.Mutex
	procs        map[int]*Process
	nextID       int
	crashedSince bool // a process died since the last collection
}

// Process models one application process sharing the heap.
type Process struct {
	m       *Manager
	id      int
	mu      sync.Mutex
	handles []*Handle
	dead    bool
}

// NewManager creates the manager for a shared heap.
func (h *Heap) NewManager() *Manager {
	return &Manager{h: h, procs: make(map[int]*Process)}
}

// Spawn starts a new sharer.
func (m *Manager) Spawn() *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	p := &Process{m: m, id: m.nextID}
	m.procs[p.id] = p
	return p
}

// ID returns the process id.
func (p *Process) ID() int { return p.id }

// ErrProcessDead is returned for operations on a dead process.
var ErrProcessDead = errors.New("ralloc: process has crashed")

// NewHandle creates an allocation handle owned by this process.
func (p *Process) NewHandle() *Handle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		panic(ErrProcessDead)
	}
	hd := p.m.h.NewHandle()
	p.handles = append(p.handles, hd)
	return hd
}

// Kill simulates the crash of a single process (a software bug or signal,
// §4.5.2) while the rest of the system keeps running: its handles become
// unusable and every block they cached — plus anything it allocated but
// never attached — leaks until the next collection. The OS notification to
// the manager is modeled by the crashedSince flag.
func (m *Manager) Kill(p *Process) {
	p.mu.Lock()
	p.dead = true
	for _, hd := range p.handles {
		hd.invalid = true
	}
	p.mu.Unlock()
	m.mu.Lock()
	m.crashedSince = true
	delete(m.procs, p.id)
	m.mu.Unlock()
}

// CrashedSinceCollection reports whether any sharer has died since the last
// stop-the-world collection — the trigger condition the paper pairs with a
// low-memory situation (§3).
func (m *Manager) CrashedSinceCollection() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashedSince
}

// Collect performs a stop-the-world collection. The caller must have
// quiesced every live process (no allocator or data-structure operation in
// flight, all useful blocks attached) — the paper obtains this with a
// quiescence mechanism adapted from asymmetric locking; in this model it is
// the caller's obligation.
//
// Live processes' thread caches are pinned as roots: those blocks are
// legitimately allocated even though no persistent root reaches them. The
// caches remain valid after the collection, so live processes continue
// without interruption.
func (m *Manager) Collect() (RecoveryStats, error) {
	stats := m.h.gc(1, m.pinLiveCaches)
	m.mu.Lock()
	m.crashedSince = false
	m.mu.Unlock()
	return stats, nil
}

// pinLiveCaches marks every block held in a live process's thread caches.
func (m *Manager) pinLiveCaches(g *GC) {
	m.mu.Lock()
	procs := make([]*Process, 0, len(m.procs))
	for _, p := range m.procs {
		procs = append(procs, p)
	}
	m.mu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		for _, hd := range p.handles {
			for c := 1; c <= sizeclass.NumClasses; c++ {
				for _, b := range hd.cache[c] {
					g.pin(b)
				}
			}
		}
		p.mu.Unlock()
	}
}

// LiveProcesses reports how many sharers are alive.
func (m *Manager) LiveProcesses() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.procs)
}
