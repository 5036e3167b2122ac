package ralloc

import (
	"repro/internal/alloc"
	"repro/internal/pmem"
)

// AsAllocator adapts the heap to the generic alloc.Allocator interface used
// by benchmarks and data structures. The adapter also satisfies
// alloc.Recoverable.
func (h *Heap) AsAllocator() alloc.Allocator { return allocAdapter{h} }

type allocAdapter struct{ h *Heap }

func (a allocAdapter) Name() string            { return a.h.Name() }
func (a allocAdapter) Region() *pmem.Region    { return a.h.Region() }
func (a allocAdapter) NewHandle() alloc.Handle { return a.h.NewHandle() }
func (a allocAdapter) Close() error            { return a.h.Close() }
func (a allocAdapter) Recover() error          { _, err := a.h.Recover(); return err }

// Heap returns the adapted heap, for a caller that needs its roots.
func (a allocAdapter) Heap() *Heap { return a.h }

var (
	_ alloc.Allocator   = allocAdapter{}
	_ alloc.Recoverable = allocAdapter{}
	_ alloc.Handle      = (*Handle)(nil)
)
