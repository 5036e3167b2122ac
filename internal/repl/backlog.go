// Package repl implements primary→replica replication for the server: a
// monotone byte-offset write feed over the canonical RESP encoding of every
// propagated write command, a bounded in-memory backlog ring that lets a
// briefly-disconnected replica resume without a full re-bootstrap, and the
// PSYNC-style handshake that streams a checkpoint image followed by the live
// feed — both ends of it: what a primary writes, and Sync, the one client a
// replica bootstraps or resumes with. The RESP framing under all of it, and
// its limits, are internal/resp's, shared with the server's command reader.
//
// The package deliberately knows nothing about storage: replica-side
// mutation happens by handing decoded feed entries back to the server's
// normal dispatch pipeline, never by mutating a pmem.Region (enforced by the
// ralloc-vet replpurity rule; the one pmem call here, PublishFile, renames a
// downloaded image file into place). The only state here is the feed itself.
package repl

import "sort"

// backlog retains the most recent bytes of the feed in a flat buffer.
// Offsets are absolute stream positions: the buffer holds bytes
// [start, start+len(data)), and trimming advances start. Alongside the bytes
// it keeps the absolute end offset of every retained entry, so consumers can
// take whole-entry spans — a sender must never cut the wire mid-entry,
// because an abort line is only legal at an entry boundary. All access is
// guarded by the owning Feed's mutex.
type backlog struct {
	data  []byte
	start uint64   // stream offset of data[0]
	ends  []uint64 // ascending absolute end offsets of retained entries
	max   int      // retained-byte bound when unpinned
}

func (b *backlog) end() uint64 { return b.start + uint64(len(b.data)) }

// append adds one complete entry's bytes.
func (b *backlog) append(p []byte) {
	b.data = append(b.data, p...)
	b.ends = append(b.ends, b.end())
}

// trim enforces the retention bound. Eviction is byte-granular: start may
// land mid-entry, which is harmless because cursors only ever sit on entry
// boundaries — a boundary inside the retained window stays addressable no
// matter where the window's ragged front edge falls. Boundary records whose
// entry ends at or before the new start are dropped with the bytes.
func (b *backlog) trim() {
	if len(b.data) <= b.max {
		return
	}
	n := len(b.data) - b.max
	b.data = b.data[n:]
	b.start += uint64(n)
	drop := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] > b.start })
	b.ends = b.ends[drop:]
	// The slice-off fronts are dead capacity; once they dominate, re-home
	// the window so memory stays O(max) across the feed's lifetime.
	if cap(b.data) > 2*b.max+1024 {
		fresh := make([]byte, len(b.data), b.max+b.max/4)
		copy(fresh, b.data)
		b.data = fresh
	}
	if cap(b.ends) > 2*len(b.ends)+64 {
		fresh := make([]uint64, len(b.ends))
		copy(fresh, b.ends)
		b.ends = fresh
	}
}

// covers reports whether off is inside the retained window (an end-of-window
// offset counts: a fully caught-up cursor has nothing to read but is valid).
func (b *backlog) covers(off uint64) bool {
	return off >= b.start && off <= b.end()
}

// sliceEntries returns the retained bytes of as many complete entries
// starting at off as fit in max bytes — but always at least one, so a single
// oversized entry cannot wedge its consumer. off must be an entry boundary
// with off < end(). The caller must hold the feed lock; the returned slice
// aliases the buffer and must be copied before the lock is released.
func (b *backlog) sliceEntries(off uint64, max int) []byte {
	i := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] > off })
	last := b.ends[i]
	for i+1 < len(b.ends) && b.ends[i+1]-off <= uint64(max) {
		i++
		last = b.ends[i]
	}
	return b.data[off-b.start : last-b.start]
}
