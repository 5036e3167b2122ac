package repl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/resp"
)

// refBacklog is the backlog as it was before it became two sliding windows: a
// slice cut from the front and re-homed once the dead capacity dominated. It
// allocates where the new one does not and is kept as the reference the new
// one must be indistinguishable from — offsets, bytes, batch boundaries.
type refBacklog struct {
	data  []byte
	start uint64
	ends  []uint64
	max   int
}

func (b *refBacklog) end() uint64 { return b.start + uint64(len(b.data)) }

func (b *refBacklog) append(p []byte) {
	b.data = append(b.data, p...)
	b.ends = append(b.ends, b.end())
}

func (b *refBacklog) trim() {
	if len(b.data) <= b.max {
		return
	}
	n := len(b.data) - b.max
	b.data = b.data[n:]
	b.start += uint64(n)
	drop := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] > b.start })
	b.ends = b.ends[drop:]
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

func (b *refBacklog) covers(off uint64) bool { return off >= b.start && off <= b.end() }

func (b *refBacklog) sliceEntries(off uint64, max int) []byte {
	i := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] > off })
	last := b.ends[i]
	for i+1 < len(b.ends) && b.ends[i+1]-off <= uint64(max) {
		i++
		last = b.ends[i]
	}
	return b.data[off-b.start : last-b.start]
}

// refFeed is Feed's bookkeeping around the reference backlog, without the
// blocking: the script never reads a cursor that has nothing to read.
type refFeed struct {
	b    refBacklog
	pins int
}

func (f *refFeed) appendRaw(p []byte) uint64 {
	f.b.append(p)
	if f.pins == 0 {
		f.b.trim()
	}
	return f.b.end()
}

func (f *refFeed) unpin() {
	if f.pins--; f.pins == 0 {
		f.b.trim()
	}
}

// TestBacklogMatchesReference drives a Feed and the reference with one random
// script per capacity: appends from one byte to three times the bound, raw
// and encoded, pins and unpins, cursors opened anywhere and read in batches
// of every size. Every observable must agree at every step.
func TestBacklogMatchesReference(t *testing.T) {
	batchMax := []int{1, 64, 4096, 256 << 10}
	for _, capacity := range []int{1, 7, 64, 4096, 1 << 20} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			const start = 1000
			f := NewFeed(capacity, 1, start)
			ref := &refFeed{b: refBacklog{start: start, max: capacity}}
			type cursor struct {
				c   *Cursor
				off uint64
			}
			var cursors []cursor
			var boundaries []uint64 // every entry boundary so far
			boundaries = append(boundaries, start)
			steps := 4000
			if capacity > 4096 {
				steps = 300 // appends are megabytes each
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // append
					var n int
					switch rng.Intn(4) {
					case 0:
						n = 1 + rng.Intn(16)
					case 1:
						n = 1 + rng.Intn(capacity+1)
					case 2:
						n = 1 + rng.Intn(3*capacity)
					default:
						n = 1 + rng.Intn(capacity/8+2)
					}
					p := make([]byte, n)
					rng.Read(p)
					var got uint64
					if rng.Intn(2) == 0 {
						got = f.AppendRaw(p)
						ref.appendRaw(p)
					} else {
						args := [][]byte{[]byte("SET"), p[:n/2], p[n/2:]}
						got = f.Append(args)
						ref.appendRaw(AppendEntry(nil, args))
					}
					if got != ref.b.end() {
						t.Fatalf("step %d: append returned %d, reference %d", step, got, ref.b.end())
					}
					boundaries = append(boundaries, got)
				case op == 5 && ref.pins < 3:
					f.Pin()
					ref.pins++
				case op == 6 && ref.pins > 0:
					f.Unpin()
					ref.unpin()
				case op == 7: // open a cursor at a boundary, retained or not
					off := boundaries[rng.Intn(len(boundaries))]
					if rng.Intn(8) == 0 {
						off = boundaries[len(boundaries)-1] + 1 // past the end
					}
					c, ok := f.CursorAt(off)
					if ok != ref.b.covers(off) {
						t.Fatalf("step %d: CursorAt(%d) = %v, reference %v", step, off, ok, ref.b.covers(off))
					}
					if ok && len(cursors) < 8 {
						cursors = append(cursors, cursor{c, off})
					}
				case op >= 8 && len(cursors) > 0: // read a batch
					i := rng.Intn(len(cursors))
					cur := &cursors[i]
					max := batchMax[rng.Intn(len(batchMax))]
					switch {
					case cur.off < ref.b.start:
						if _, err := cur.c.NextEntries(max); !errors.Is(err, ErrFellBehind) {
							t.Fatalf("step %d: cursor at %d behind start %d: %v", step, cur.off, ref.b.start, err)
						}
						cursors = append(cursors[:i], cursors[i+1:]...)
					case cur.off < ref.b.end():
						want := ref.b.sliceEntries(cur.off, max)
						got, err := cur.c.NextEntries(max)
						if err != nil || !bytes.Equal(got, want) {
							t.Fatalf("step %d: NextEntries(%d) at %d: %d bytes, %v; reference %d bytes", step, max, cur.off, len(got), err, len(want))
						}
						cur.off += uint64(len(got))
						if cur.c.Offset() != cur.off {
							t.Fatalf("step %d: cursor offset %d, want %d", step, cur.c.Offset(), cur.off)
						}
					}
				}
				if f.Offset() != ref.b.end() || f.StartOffset() != ref.b.start || f.BacklogLen() != len(ref.b.data) {
					t.Fatalf("step %d: feed [%d,%d) %d bytes; reference [%d,%d) %d bytes", step,
						f.StartOffset(), f.Offset(), f.BacklogLen(), ref.b.start, ref.b.end(), len(ref.b.data))
				}
				if ref.pins == 0 && cap(f.b.data.buf) > 2*capacity+1024 {
					t.Fatalf("step %d: unpinned backlog of bound %d holds %d bytes of capacity", step, capacity, cap(f.b.data.buf))
				}
			}
		})
	}
}

// TestBacklogEntryLargerThanBound: the tail of an entry the bound cannot hold
// is retained, its start is not addressable, its end is.
func TestBacklogEntryLargerThanBound(t *testing.T) {
	f := NewFeed(64, 1, 0)
	f.Append(entry("SET", "a", "1"))
	before, _ := f.CursorAt(f.Offset())
	at := f.Offset()
	end := f.Append(entry("SET", "big", strings.Repeat("x", 200)))
	if f.BacklogLen() != 64 || f.StartOffset() != end-64 {
		t.Fatalf("backlog [%d,%d) %d bytes, want the last 64", f.StartOffset(), end, f.BacklogLen())
	}
	if _, ok := f.CursorAt(at); ok {
		t.Fatal("the oversized entry's start is still addressable")
	}
	if _, err := before.NextEntries(4096); !errors.Is(err, ErrFellBehind) {
		t.Fatalf("cursor in front of the oversized entry: %v, want ErrFellBehind", err)
	}
	c, ok := f.CursorAt(end)
	if !ok {
		t.Fatal("the oversized entry's end is not addressable")
	}
	want := AppendEntry(nil, entry("DEL", "a"))
	f.Append(entry("DEL", "a"))
	if got, err := c.NextEntries(4096); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("entry after the oversized one: %q, %v", got, err)
	}
}

// TestBacklogShrinksOnLastUnpin: a pinned backlog grows past its bound for as
// long as a full sync needs it to, and the last Unpin — not the first — gives
// the bytes and the capacity back.
func TestBacklogShrinksOnLastUnpin(t *testing.T) {
	const bound = 4096
	f := NewFeed(bound, 1, 0)
	f.Pin()
	f.Pin()
	for i := 0; i < 10000; i++ {
		f.Append(entry("SET", "key", "a value of some length"))
	}
	grown := f.BacklogLen()
	if grown < 100*bound {
		t.Fatalf("pinned backlog holds %d bytes", grown)
	}
	f.Unpin()
	if f.BacklogLen() != grown {
		t.Fatalf("backlog trimmed to %d with a pin still held", f.BacklogLen())
	}
	f.Unpin()
	if f.BacklogLen() != bound || f.StartOffset() != f.Offset()-bound {
		t.Fatalf("after the last Unpin: [%d,%d) %d bytes", f.StartOffset(), f.Offset(), f.BacklogLen())
	}
	if c, n := cap(f.b.data.buf), cap(f.b.ends.buf); c > 2*bound+1024 || n > 8*len(f.b.ends.live())+64 {
		t.Fatalf("after the last Unpin the backlog still holds %d bytes and %d boundaries of capacity", c, n)
	}
}

// TestFeedCloseDrains: a closed feed hands out what it retains before it
// reports ErrClosed.
func TestFeedCloseDrains(t *testing.T) {
	f := NewFeed(4096, 1, 0)
	c, _ := f.CursorAt(0)
	var want []byte
	for i := 0; i < 5; i++ {
		e := entry("SET", fmt.Sprint("k", i), "v")
		want = AppendEntry(want, e)
		f.Append(e)
	}
	f.Close()
	var got []byte
	for {
		p, err := c.NextEntries(40)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drained %q, want %q", got, want)
	}
}

// TestNonCanonicalEntriesRelay: a length may be written in ways the decoder
// accepts and the encoder never produces. A replica relays such an entry byte
// for byte — ReadEntry's raw into AppendRaw — and NextEntries still cuts at
// its boundaries and honours max.
func TestNonCanonicalEntriesRelay(t *testing.T) {
	wires := []string{
		"*+1\r\n$4\r\nPING\r\n",
		"*3\r\n$+3\r\nSET\r\n$1\r\nk\r\n$-0\r\n\r\n",
		"*2\r\n$03\r\nDEL\r\n$1\r\nk\r\n",
	}
	br := resp.NewReader(strings.NewReader(strings.Join(wires, "")))
	f := NewFeed(4096, 1, 0)
	c, _ := f.CursorAt(0)
	for _, w := range wires {
		args, raw, err := ReadEntry(br)
		if err != nil || string(raw) != w {
			t.Fatalf("ReadEntry(%q) = %q, %v", w, raw, err)
		}
		if bytes.Equal(raw, AppendEntry(nil, args)) {
			t.Fatalf("%q is canonical: the case tests nothing", w)
		}
		f.AppendRaw(raw)
	}
	if got, err := c.NextEntries(len(wires[0]) + len(wires[1]) + 1); err != nil || string(got) != wires[0]+wires[1] {
		t.Fatalf("first batch %q, %v: want the two entries that fit", got, err)
	}
	if got, err := c.NextEntries(1); err != nil || string(got) != wires[2] {
		t.Fatalf("second batch %q, %v: want the one entry left", got, err)
	}
}

// TestFeedAppendDoesNotAllocate: once the windows have reached their size an
// entry is encoded in place and the bound is enforced by moving an index. A
// counting feed only adds, and takes no lock: its appends run here with the
// feed's mutex held.
func TestFeedAppendDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		size     int
		counting bool
	}{{100, false}, {20 << 10, false}, {100, true}} { // a typical value, and one a third of the bound
		newFeed := NewFeed
		if tc.counting {
			newFeed = NewCountingFeed
		}
		f := newFeed(64<<10, 1, 0)
		args := entry("SET", "key:000000012345", strings.Repeat("v", tc.size))
		for i := 0; i < 10000; i++ {
			f.Append(args)
		}
		if tc.counting {
			f.mu.Lock()
		}
		if n := testing.AllocsPerRun(5000, func() { f.Append(args) }); n != 0 {
			t.Fatalf("Feed.Append of %d-byte values (counting %v) allocates %v times per entry", tc.size, tc.counting, n)
		}
		if tc.counting {
			f.mu.Unlock()
			if want := uint64(15001 * entryLen(args)); f.Offset() != want || f.Entries() != 15001 || f.BacklogLen() != 0 {
				t.Fatalf("counting feed: offset %d entries %d backlog %d, want %d, 15001, 0", f.Offset(), f.Entries(), f.BacklogLen(), want)
			}
		}
	}
}

func BenchmarkFeedAppend(b *testing.B) {
	f := NewFeed(1<<20, 1, 0)
	args := entry("SET", "key:000000012345", strings.Repeat("v", 100))
	b.SetBytes(int64(entryLen(args)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Append(args)
	}
}

// BenchmarkCursorDrain is a sender keeping up with a writer: append a burst,
// read it back in the batches servePSync asks for.
func BenchmarkCursorDrain(b *testing.B) {
	f := NewFeed(1<<20, 1, 0)
	c, _ := f.CursorAt(0)
	args := entry("SET", "key:000000012345", strings.Repeat("v", 100))
	const burst = 256
	b.SetBytes(int64(entryLen(args)))
	b.ReportAllocs()
	for i := 0; i < b.N; i += burst {
		for j := 0; j < burst; j++ {
			f.Append(args)
		}
		for c.Offset() < f.Offset() {
			if _, err := c.NextEntries(256 << 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}
