package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dstruct"
	"repro/internal/pmem"
	"repro/internal/pptr"
	"repro/internal/ralloc"
)

// Figure 6 measures the cost of Ralloc's recovery procedure: an application
// fills a structure, "crashes" (no close()), and the next run's recover()
// performs GC and metadata reconstruction. Recovery time is reported
// against the number of reachable blocks; the paper finds it linear, with a
// higher per-node constant for the tree (poorer locality).

// GCResult is one Fig. 6 sample. GCTime is total recovery wall time,
// decomposed into TraceTime (steps 4–5) and SweepTime (steps 3, 6–10);
// TraceWork and SweepUnits are the corresponding deterministic work
// counters, suitable for linearity assertions that wall-clock ratios are
// too noisy for.
type GCResult struct {
	Structure       string
	RequestedNodes  int
	ReachableBlocks uint64
	GCTime          time.Duration
	TraceTime       time.Duration
	SweepTime       time.Duration
	TraceWork       uint64
	SweepUnits      uint64
	Conservative    bool // tracing mode (filters off = ablation A1)
}

func gcResult(structure string, n int, conservative bool, stats ralloc.RecoveryStats) GCResult {
	return GCResult{
		Structure:       structure,
		RequestedNodes:  n,
		ReachableBlocks: stats.ReachableBlocks,
		GCTime:          stats.Duration,
		TraceTime:       stats.TraceTime,
		SweepTime:       stats.SweepTime,
		TraceWork:       stats.TraceWork,
		SweepUnits:      stats.SweepUnits,
		Conservative:    conservative,
	}
}

func gcHeap(nodes int) (*ralloc.Heap, error) {
	// ~64 B per stack node pair; size generously.
	size := uint64(nodes)*192 + (64 << 20)
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    size,
		GrowthChunk: 16 << 20,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim},
	})
	return h, err
}

// GCStack measures recovery time for a Treiber stack of n key-value nodes
// (Fig. 6a). useFilter=false forces conservative tracing of the nodes (the
// head is always filtered: conservative GC cannot decode it at all).
// workers is the recovery worker count: 1 is the paper's recover(), more is
// its §6.4 future work.
func GCStack(n int, useFilter bool, workers int) (GCResult, error) {
	h, err := gcHeap(n)
	if err != nil {
		return GCResult{}, err
	}
	defer h.Close()
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := dstruct.NewStack(a, hd)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if !s.Push(hd, rng.Uint64()) {
			return GCResult{}, fmt.Errorf("stack push OOM at %d", i)
		}
	}
	h.SetRoot(0, root)
	if err := h.Region().Crash(); err != nil {
		return GCResult{}, err
	}
	filter := s.Filter()
	if !useFilter {
		filter = conservativeStackHead(h)
	}
	h.GetRoot(0, filter)
	stats, err := h.RecoverParallel(workers)
	if err != nil {
		return GCResult{}, err
	}
	return gcResult("stack", n, !useFilter, stats), nil
}

// conservativeStackHead decodes only the tagged head word, then lets the
// nodes trace conservatively (their links are off-holders).
func conservativeStackHead(h *ralloc.Heap) ralloc.Filter {
	r := h.Region()
	return func(g *ralloc.GC, off uint64) {
		if _, top := pptr.UnpackTag(r.Load(off)); top != 0 {
			g.Visit(top, nil)
		}
	}
}

// GCTree measures recovery time for a Natarajan–Mittal BST of n random
// key-value pairs (Fig. 6b). The tree's edges carry mark bits, so tracing
// always uses the tree filter.
func GCTree(n int) (GCResult, error) {
	h, err := gcHeap(2 * n)
	if err != nil {
		return GCResult{}, err
	}
	defer h.Close()
	a := h.AsAllocator()
	hd := a.NewHandle()
	tr, root := dstruct.NewTree(a, hd)
	g := tr.Guard(hd)
	rng := rand.New(rand.NewSource(2))
	inserted := 0
	for inserted < n {
		ins, ok := tr.Insert(g, rng.Uint64()%(dstruct.Inf0-1)+1, rng.Uint64())
		if !ok {
			return GCResult{}, fmt.Errorf("tree insert OOM at %d", inserted)
		}
		if ins {
			inserted++
		}
	}
	h.SetRoot(0, root)
	if err := h.Region().Crash(); err != nil {
		return GCResult{}, err
	}
	h.GetRoot(0, dstruct.TreeFilter(h.Region()))
	stats, err := h.Recover()
	if err != nil {
		return GCResult{}, err
	}
	return gcResult("nmbst", n, false, stats), nil
}
