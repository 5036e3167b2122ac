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

import (
	"math"
	"sort"

	"repro/internal/resp"
)

// window is a queue in one flat array: appended at the back, dropped from the
// front by advancing head. When the back is out of room the live part slides to
// the front — only once the dead front is at least as long, so an element moves
// at most once per append — or the array doubles, no further than limit if it can.
type window[T any] struct {
	buf  []T
	head int
}

func (w *window[T]) live() []T { return w.buf[w.head:] }

// reserve makes room for n more elements behind the live ones.
func (w *window[T]) reserve(n, limit int) {
	live := w.live()
	switch need := len(live) + n; {
	case n <= cap(w.buf)-len(w.buf):
	case need <= cap(w.buf) && (w.head >= len(live) || cap(w.buf) >= limit):
		w.buf, w.head = w.buf[:copy(w.buf, live)], 0
	case need <= limit:
		w.rehome(min(max(2*cap(w.buf), need), limit))
	default:
		w.rehome(max(2*cap(w.buf), need))
	}
}

func (w *window[T]) rehome(c int) { // the live part moves to a fresh array
	w.buf, w.head = append(make([]T, 0, c), w.live()...), 0
}

// backlog retains the most recent bytes of the feed in a flat window. Offsets
// are absolute stream positions: the window holds [start, start+len(data.live())),
// and trimming advances start. Alongside the bytes it keeps the absolute end
// offset of every retained entry, so consumers can take whole-entry spans — a
// sender must never cut the wire mid-entry, because an abort line is only legal
// at an entry boundary. It starts empty and settles at twice max, where an
// append allocates nothing. All access is guarded by the owning Feed's mutex.
type backlog struct {
	data  window[byte]
	start uint64         // stream offset of data.live()[0]
	ends  window[uint64] // ascending absolute end offsets of retained entries
	max   int            // retained-byte bound when unpinned
}

func (b *backlog) end() uint64 { return b.start + uint64(len(b.data.live())) }

// appendEntry encodes args as one entry, in place.
func (b *backlog) appendEntry(args [][]byte) {
	b.data.reserve(resp.CommandLen(args), 2*b.max)
	b.data.buf = resp.AppendCommand(b.data.buf, args)
	b.ends.reserve(1, math.MaxInt)
	b.ends.buf = append(b.ends.buf, b.end())
}

// appendRaw adds one complete entry's bytes.
func (b *backlog) appendRaw(p []byte) {
	b.data.reserve(len(p), 2*b.max)
	b.data.buf = append(b.data.buf, p...)
	b.ends.reserve(1, math.MaxInt)
	b.ends.buf = append(b.ends.buf, b.end())
}

// trim enforces the retention bound. Eviction is byte-granular: start may
// land mid-entry, which is harmless because cursors only ever sit on entry
// boundaries — a boundary inside the retained window stays addressable no
// matter where the window's ragged front edge falls. Boundary records whose
// entry ends at or before the new start are dropped with the bytes.
func (b *backlog) trim() {
	n := len(b.data.live()) - b.max
	if n <= 0 {
		return
	}
	b.data.head += n
	b.start += uint64(n)
	ends := b.ends.live()
	b.ends.head += sort.Search(len(ends), func(i int) bool { return ends[i] > b.start })
	// What a pin or an oversized entry grew goes back: memory stays O(max).
	if cap(b.data.buf) > 2*b.max+1024 {
		b.data.rehome(2 * b.max)
	}
	if kept := len(b.ends.live()); cap(b.ends.buf) > 8*kept+64 {
		b.ends.rehome(2 * kept)
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
	ends := b.ends.live()
	i := sort.Search(len(ends), func(i int) bool { return ends[i] > off })
	last := ends[i]
	for i+1 < len(ends) && ends[i+1]-off <= uint64(max) {
		i++
		last = ends[i]
	}
	return b.data.live()[off-b.start : last-b.start]
}
