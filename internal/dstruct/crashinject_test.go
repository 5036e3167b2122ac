package dstruct

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Crash injection inside data-structure operations: the StoreHook blows up
// mid-Push/Set, so the crash lands between the structure's own flushes —
// e.g. after a node is written but before the head CAS persists. Recovery
// must leave the structure in a consistent pre- or post-operation state and
// the allocator consistent either way.

func stackWithCrashAt(t *testing.T, k int) (*ralloc.Heap, int) {
	t.Helper()
	var crash alloctest.Crasher
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    8 << 20,
		GrowthChunk: 1 << 20,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, StoreHook: crash.Hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := NewStack(a, hd)
	for i := uint64(0); i < 100; i++ {
		s.Push(hd, i)
	}
	h.SetRoot(0, root)

	completed := 0
	crash.At(k, func() {
		for i := 0; i < 50; i++ {
			if !s.Push(hd, uint64(1000+i)) {
				t.Error("push OOM")
				return
			}
			completed = i + 1
		}
	})
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, completed
}

func TestStackCrashMidPushSweep(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 9, 13, 21, 34, 55, 89, 144, 233} {
		h, completed := stackWithCrashAt(t, k)
		a := h.AsAllocator()
		root := h.GetRoot(0, AttachStack(a, h.GetRoot(0, nil)).Filter())
		stats, err := h.Recover()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		s := AttachStack(a, root)
		n := s.Len()
		// Durable linearizability of Push: each completed push flushed
		// head and node, so at least the base 100 plus every *completed*
		// push except possibly the in-flight one must be present — and
		// never more than base + attempted.
		if n < 100+completed-1 || n > 100+completed+1 {
			t.Fatalf("k=%d: stack has %d nodes; %d pushes completed", k, n, completed)
		}
		// Popping everything yields a coherent LIFO sequence.
		hd := a.NewHandle()
		prev := uint64(1 << 62)
		base := 0
		for {
			v, ok := s.Pop(hd)
			if !ok {
				break
			}
			if v >= 1000 {
				if v >= prev {
					t.Fatalf("k=%d: pushes out of order: %d then %d", k, prev, v)
				}
				prev = v
			} else {
				base++
			}
		}
		if base != 100 {
			t.Fatalf("k=%d: base nodes = %d, want 100", k, base)
		}
		_ = stats
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}
