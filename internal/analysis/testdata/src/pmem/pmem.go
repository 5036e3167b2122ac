// Package pmem is the fixture stub of the real persistent-memory region:
// same package name, type name, and method set, so the analyzers (which
// match by package and type name, not import path) treat it as the real
// thing. Every method is a no-op.
package pmem

// Region mimics repro/internal/pmem.Region's accessor surface.
type Region struct{ _ [0]byte }

func (r *Region) Load(off uint64) uint64             { return 0 }
func (r *Region) Store(off, val uint64)              {}
func (r *Region) CAS(off, old, new uint64) bool      { return false }
func (r *Region) Add(off, delta uint64) uint64       { return 0 }
func (r *Region) ReadBytes(off uint64, dst []byte)   {}
func (r *Region) EqualBytes(off uint64, b []byte) bool { return false }
func (r *Region) WriteBytes(off uint64, src []byte)  {}
func (r *Region) Zero(off, n uint64)                 {}
func (r *Region) Flush(off uint64)                   {}
func (r *Region) FlushRange(off, n uint64)           {}
func (r *Region) Fence()                             {}
func (r *Region) Persist()                           {}
func (r *Region) SaveFile(path string) error         { return nil }
func (r *Region) SaveFileOnline(path string, fence func(cut func() error) error) (SnapshotStats, error) {
	return SnapshotStats{}, nil
}

// SnapshotStats mimics the online-snapshot copy counters.
type SnapshotStats struct{ Lines, Recopied, FenceRecopied uint64 }

// Config mimics the hook surface hookpurity inspects.
type Config struct {
	StoreHook func(off, val uint64)
}
