package repl

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/resp"
)

var (
	// ErrClosed reports that the feed was closed (server shutdown or role
	// change) while a cursor was waiting for more bytes.
	ErrClosed = errors.New("repl: feed closed")
	// ErrAborted reports that this cursor specifically was aborted
	// (replica link torn down, PSYNC stream cancelled).
	ErrAborted = errors.New("repl: cursor aborted")
	// ErrFellBehind reports that the backlog evicted bytes past the
	// cursor's position: the consumer is too slow for the configured
	// backlog and must full-resync.
	ErrFellBehind = errors.New("repl: cursor fell behind backlog")
)

// Feed is the replication write feed. On a primary it is the source of
// truth for propagation: every successful write-flagged command appends its
// canonical RESP encoding and the end offset advances; sender cursors stream
// the bytes to replicas. On a replica the same structure tracks the applied
// stream — every entry applied from the link is re-appended verbatim, so the
// replica's feed is byte-identical to the primary's prefix it has consumed,
// its end offset *is* the applied offset, and promotion just starts new
// cursors on it.
//
// A feed nobody can read yet counts instead (NewCountingFeed): Append only
// advances the end offset and the entry count, without the lock, and no
// byte is kept until Retain.
type Feed struct {
	mu   sync.Mutex
	cond *sync.Cond

	id      uint64 // replication stream ID (hex token in the handshake)
	b       backlog
	pins    int // >0: full-sync in flight, eviction paused
	closed  bool
	entries uint64 // appended entry count, for observability

	// The counting state: while counting is set, countEnd and countEntries
	// stand in for b.end() and entries, and the backlog is unused.
	counting     atomic.Bool
	countEnd     atomic.Uint64
	countEntries atomic.Uint64
}

// NewFeed creates a feed whose stream starts at offset start (a replica
// bootstrapped from a checkpoint image starts at the image's stamped
// offset; a fresh primary starts at 0) with the given stream ID and backlog
// retention bound in bytes.
func NewFeed(capacity int, id, start uint64) *Feed {
	if capacity < 1 {
		capacity = 1
	}
	f := &Feed{id: id, b: backlog{start: start, max: capacity}}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// NewCountingFeed is NewFeed in the counting state: it covers no offset and
// retains nothing until Retain, so it suits a stream whose first reader has
// yet to be handed a position.
func NewCountingFeed(capacity int, id, start uint64) *Feed {
	f := NewFeed(capacity, id, start)
	f.countEnd.Store(start)
	f.counting.Store(true)
	return f
}

// Retain ends the counting state: the backlog starts, empty, at the counted
// end, and every later Append is retained. The caller must keep every
// appender out while it runs — an Append that saw the counting state and has
// not yet counted would be lost from the offsets. Retain on a retaining feed
// does nothing.
func (f *Feed) Retain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counting.Load() {
		f.b.start = f.countEnd.Load()
		f.entries = f.countEntries.Load()
		f.counting.Store(false)
	}
}

// count is Append and AppendRaw in the counting state.
func (f *Feed) count(n int) uint64 {
	f.countEntries.Add(1)
	return f.countEnd.Add(uint64(n))
}

// ID returns the replication stream ID.
func (f *Feed) ID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.id
}

// SetID changes the stream ID. A server transitioning to primary installs a
// fresh ID so stale replicas of the previous stream cannot silently
// partial-resync across the divergence point.
func (f *Feed) SetID(id uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.id = id
}

// Offset returns the feed's end offset: the stream position after the last
// appended entry. On a replica this is the applied offset.
func (f *Feed) Offset() uint64 {
	if f.counting.Load() {
		return f.countEnd.Load()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.b.end()
}

// StartOffset returns the earliest retained stream offset; a counting feed
// retains nothing, so its window starts at its end.
func (f *Feed) StartOffset() uint64 {
	if f.counting.Load() {
		return f.countEnd.Load()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.b.start
}

// BacklogLen returns the retained byte count.
func (f *Feed) BacklogLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.b.data.live())
}

// Entries returns how many entries have been appended over the feed's
// lifetime.
func (f *Feed) Entries() uint64 {
	if f.counting.Load() {
		return f.countEntries.Load()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.entries
}

// Append encodes args as one canonical feed entry, appends it, and returns
// the new end offset. Callers serialize appends against each other only as
// far as their own ordering requirements demand — on the primary the tap
// appends while still holding the command's stripe locks, so feed order
// equals execution order for conflicting commands. A counting feed adds the
// entry's encoded length and returns: no lock, no encoding, no wake-up.
func (f *Feed) Append(args [][]byte) uint64 {
	if f.counting.Load() {
		return f.count(resp.CommandLen(args))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.b.appendEntry(args)
	return f.appended()
}

// AppendRaw appends an already-encoded entry (a replica re-appending the
// exact bytes it consumed from the link) and returns the new end offset.
func (f *Feed) AppendRaw(raw []byte) uint64 {
	if f.counting.Load() {
		return f.count(len(raw))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.b.appendRaw(raw)
	return f.appended()
}

// appended follows an entry into the backlog: bound, wake-up, new end offset.
func (f *Feed) appended() uint64 {
	f.entries++
	if f.pins == 0 {
		f.b.trim()
	}
	f.cond.Broadcast()
	return f.b.end()
}

// Pin pauses backlog eviction. A full sync pins before the checkpoint
// image's offset is fixed so the feed bytes from that offset onward are
// still retained when the image finishes streaming. Pins nest.
func (f *Feed) Pin() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pins++
}

// Unpin reverses one Pin, re-applying the retention bound.
func (f *Feed) Unpin() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pins <= 0 {
		panic("repl: Unpin without Pin")
	}
	f.pins--
	if f.pins == 0 {
		f.b.trim()
	}
}

// Close marks the feed closed and wakes every waiting cursor with ErrClosed
// once they drain the retained bytes.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.cond.Broadcast()
}

// CursorAt returns a cursor positioned at absolute stream offset off, or
// false if the backlog no longer covers it (the caller must full-resync). A
// counting feed covers no offset. off must be an entry boundary — image
// cut-over offsets and replica applied offsets are, by construction.
func (f *Feed) CursorAt(off uint64) (*Cursor, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counting.Load() || !f.b.covers(off) {
		return nil, false
	}
	return &Cursor{f: f, off: off}, true
}

// Cursor is one consumer's position in the feed. Next blocks for new bytes;
// Abort (any goroutine) unblocks it with ErrAborted.
type Cursor struct {
	f       *Feed
	off     uint64
	aborted bool // guarded by f.mu
}

// Offset returns the cursor's current absolute stream offset.
func (c *Cursor) Offset() uint64 {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.off
}

// NextEntries returns the next available feed entries — whole entries only,
// as many as fit in max bytes but always at least one — blocking until the
// feed grows past the cursor. Entry alignment is what lets a sender abort
// the stream cleanly: a "-ERR" line is only legal at an entry boundary, so
// every write this returns leaves the wire in a resumable state. The
// returned slice is a copy. Errors: ErrAborted after Abort, ErrFellBehind if
// the backlog evicted the cursor's position, ErrClosed once the feed is
// closed and drained.
func (c *Cursor) NextEntries(max int) ([]byte, error) {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if c.aborted {
			return nil, ErrAborted
		}
		if c.off < f.b.start {
			return nil, ErrFellBehind
		}
		if c.off < f.b.end() {
			p := f.b.sliceEntries(c.off, max)
			out := make([]byte, len(p))
			copy(out, p)
			c.off += uint64(len(out))
			return out, nil
		}
		if f.closed {
			return nil, ErrClosed
		}
		f.cond.Wait()
	}
}

// Abort wakes a blocked Next with ErrAborted and poisons the cursor.
func (c *Cursor) Abort() {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.aborted = true
	c.f.cond.Broadcast()
}
