package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func entry(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// entryLen is the encoded byte length of args.
func entryLen(args [][]byte) int { return len(AppendEntry(nil, args)) }

// splitEntries walks raw feed bytes and returns the byte boundaries of the
// complete entries they contain.
func splitEntries(raw []byte) (ends []int, err error) {
	br := bufio.NewReader(bytes.NewReader(raw))
	for pos := 0; pos < len(raw); {
		_, entry, err := ReadEntry(br)
		if err != nil {
			return ends, err
		}
		pos += len(entry)
		ends = append(ends, pos)
	}
	return ends, nil
}

// TestEntryRoundTrip: encode → decode returns the same args and the exact
// wire bytes.
func TestEntryRoundTrip(t *testing.T) {
	args := entry("SET", "k", "v with spaces\r\nand crlf")
	raw := AppendEntry(nil, args)
	got, rawBack, err := ReadEntry(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBack, raw) {
		t.Fatalf("raw round trip mismatch:\n got %q\nwant %q", rawBack, raw)
	}
	if len(got) != len(args) {
		t.Fatalf("arg count %d, want %d", len(got), len(args))
	}
	for i := range args {
		if !bytes.Equal(got[i], args[i]) {
			t.Fatalf("arg %d = %q, want %q", i, got[i], args[i])
		}
	}
}

// TestReadEntryOwnsItsStorage: ReadEntry never decodes in place — a refill
// of the same reader, which lands where the first entry lay, leaves its
// arguments and raw bytes as they were.
func TestReadEntryOwnsItsStorage(t *testing.T) {
	first, second := AppendEntry(nil, entry("SET", "k", "abc")), AppendEntry(nil, entry("DEL", "x", "xyz"))
	br := bufio.NewReader(io.MultiReader(bytes.NewReader(first), bytes.NewReader(second)))
	args, raw, err := ReadEntry(br)
	if err != nil || br.Buffered() != 0 {
		t.Fatalf("%v, %d bytes still buffered", err, br.Buffered())
	}
	if _, _, err := ReadEntry(br); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%q", args) != `["SET" "k" "abc"]` || !bytes.Equal(raw, first) {
		t.Fatalf("after a refill: %q, raw %q", args, raw)
	}
}

// TestReadEntryAbortAndGarbage: a "-ERR" line at the boundary is a clean
// ErrStreamAbort; malformed streams are ErrProto, never panics.
func TestReadEntryAbortAndGarbage(t *testing.T) {
	_, _, err := ReadEntry(bufio.NewReader(bytes.NewReader([]byte("-ERR shutting down\r\n"))))
	if !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("abort err = %v, want ErrStreamAbort", err)
	}
	for _, bad := range []string{
		"*1\r\n$3\r\nabcXY", // bulk not CRLF-terminated
		"*x\r\n",            // bad array header
		"*1\r\n+OK\r\n",     // non-bulk element
		":5\r\n",            // not an array
		"*1\n$1\na\n",       // bare LF
		"*1\r\n$-1\r\n",     // negative bulk
		"*0\r\n",            // empty entry
	} {
		if _, _, err := ReadEntry(bufio.NewReader(bytes.NewReader([]byte(bad)))); !errors.Is(err, ErrProto) {
			t.Fatalf("%q: err = %v, want ErrProto", bad, err)
		}
	}
}

// TestFeedOffsetsAndBacklog: offsets advance by encoded length from the
// configured start; eviction drops the oldest bytes but keeps offsets
// absolute; a pinned feed retains everything until unpinned.
func TestFeedOffsetsAndBacklog(t *testing.T) {
	const start = 1000
	f := NewFeed(64, 7, start)
	if f.Offset() != start || f.StartOffset() != start {
		t.Fatalf("fresh feed offsets = (%d, %d), want %d", f.Offset(), f.StartOffset(), start)
	}
	e := entry("SET", "key", "value")
	var want uint64 = start
	for i := 0; i < 10; i++ {
		want += uint64(entryLen(e))
		if got := f.Append(e); got != want {
			t.Fatalf("append %d: offset %d, want %d", i, got, want)
		}
	}
	if f.BacklogLen() > 64 {
		t.Fatalf("backlog %d bytes, want <= 64", f.BacklogLen())
	}
	if f.StartOffset() == start {
		t.Fatal("backlog never evicted")
	}
	if f.Entries() != 10 {
		t.Fatalf("entries = %d, want 10", f.Entries())
	}

	// Pinned: nothing evicts; unpin re-trims.
	f.Pin()
	pinnedStart := f.StartOffset()
	for i := 0; i < 10; i++ {
		f.Append(e)
	}
	if f.StartOffset() != pinnedStart {
		t.Fatal("pinned feed evicted")
	}
	f.Unpin()
	if f.BacklogLen() > 64 {
		t.Fatalf("post-unpin backlog %d bytes, want <= 64", f.BacklogLen())
	}
}

// TestCountingFeedRetain: a counting feed advances its offsets exactly as a
// retaining one would but keeps no byte and covers no offset; Retain starts
// the backlog at the counted end, from which a cursor streams exactly what
// was appended after it.
func TestCountingFeedRetain(t *testing.T) {
	const start = 1000
	f := NewCountingFeed(1<<20, 7, start)
	e := entry("SET", "key", "value")
	want := uint64(start)
	for i := 0; i < 10; i++ {
		want += uint64(entryLen(e))
		if got := f.Append(e); got != want {
			t.Fatalf("append %d: offset %d, want %d", i, got, want)
		}
	}
	want += uint64(entryLen(e))
	if got := f.AppendRaw(AppendEntry(nil, e)); got != want {
		t.Fatalf("raw append: offset %d, want %d", got, want)
	}
	if f.Offset() != want || f.StartOffset() != want || f.BacklogLen() != 0 || f.Entries() != 11 {
		t.Fatalf("counting feed: offset %d start %d backlog %d entries %d", f.Offset(), f.StartOffset(), f.BacklogLen(), f.Entries())
	}
	for _, off := range []uint64{start, want} {
		if _, ok := f.CursorAt(off); ok {
			t.Fatalf("a counting feed covers offset %d", off)
		}
	}

	f.Retain()
	f.Retain() // a retaining feed ignores it
	c, ok := f.CursorAt(want)
	if !ok || f.StartOffset() != want || f.Entries() != 11 {
		t.Fatalf("after Retain: cursor %v, start %d, entries %d", ok, f.StartOffset(), f.Entries())
	}
	if _, ok := f.CursorAt(want - 1); ok {
		t.Fatal("Retain kept a byte from before it")
	}
	e2 := entry("INCR", "n")
	if got := f.Append(e2); got != want+uint64(entryLen(e2)) {
		t.Fatalf("append after Retain: offset %d", got)
	}
	if p, err := c.NextEntries(1 << 20); err != nil || !bytes.Equal(p, AppendEntry(nil, e2)) {
		t.Fatalf("cursor at the counted end read %q, %v", p, err)
	}
}

// TestCursorStreamsExactBytes: a cursor started at an entry boundary
// returns the precise byte stream of subsequent appends, across blocking
// waits, every returned batch is itself whole entries (a max smaller than
// one entry still yields that entry, never a fragment), and entry
// boundaries reconstruct via splitEntries.
func TestCursorStreamsExactBytes(t *testing.T) {
	f := NewFeed(1<<20, 1, 0)
	first := f.Append(entry("SET", "a", "1"))
	c, ok := f.CursorAt(0)
	if !ok {
		t.Fatal("CursorAt(0) refused")
	}
	var got []byte
	var mu sync.Mutex
	ragged := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			p, err := c.NextEntries(7) // smaller than any entry: one at a time
			if err != nil {
				return
			}
			if _, err := splitEntries(p); err != nil {
				ragged = true
			}
			mu.Lock()
			got = append(got, p...)
			mu.Unlock()
		}
	}()
	f.Append(entry("DEL", "a"))
	f.Append(entry("SET", "b", "22"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if uint64(n) == f.Offset() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor drained %d bytes, want %d", n, f.Offset())
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	<-done
	want := AppendEntry(nil, entry("SET", "a", "1"))
	want = AppendEntry(want, entry("DEL", "a"))
	want = AppendEntry(want, entry("SET", "b", "22"))
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Fatalf("stream mismatch:\n got %q\nwant %q", got, want)
	}
	if ragged {
		t.Fatal("NextEntries returned a batch that was not whole entries")
	}
	ends, err := splitEntries(got)
	if err != nil || len(ends) != 3 {
		t.Fatalf("splitEntries = %v, %v; want 3 clean entries", ends, err)
	}
	if first != uint64(ends[0]) {
		t.Fatalf("first append offset %d, first boundary %d", first, ends[0])
	}
}

// TestCursorErrors: abort unblocks a waiting cursor; a cursor under an
// evicted position reports ErrFellBehind; CursorAt outside the window
// refuses; a drained cursor on a closed feed reports ErrClosed.
func TestCursorErrors(t *testing.T) {
	f := NewFeed(1<<20, 1, 0)
	c, _ := f.CursorAt(0)
	errc := make(chan error, 1)
	go func() {
		_, err := c.NextEntries(1 << 16)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Abort()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("abort err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Abort did not unblock Next")
	}

	small := NewFeed(32, 1, 0)
	lag, _ := small.CursorAt(0)
	for i := 0; i < 8; i++ {
		small.Append(entry("SET", "key", "value"))
	}
	if _, err := lag.NextEntries(1 << 16); !errors.Is(err, ErrFellBehind) {
		t.Fatalf("lagging cursor err = %v, want ErrFellBehind", err)
	}
	if _, ok := small.CursorAt(0); ok {
		t.Fatal("CursorAt accepted evicted offset")
	}
	if _, ok := small.CursorAt(small.Offset() + 1); ok {
		t.Fatal("CursorAt accepted future offset")
	}

	small.Close()
	c2, _ := small.CursorAt(small.Offset())
	if _, err := c2.NextEntries(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed err = %v, want ErrClosed", err)
	}
}

// TestNextEntriesBatches: with room to spare, one call returns multiple
// whole entries; a budget ending mid-entry rounds down to the boundary.
func TestNextEntriesBatches(t *testing.T) {
	f := NewFeed(1<<20, 1, 0)
	e := entry("SET", "key", "value")
	el := entryLen(e)
	for i := 0; i < 5; i++ {
		f.Append(e)
	}
	c, _ := f.CursorAt(0)
	p, err := c.NextEntries(el * 3)
	if err != nil || len(p) != el*3 {
		t.Fatalf("NextEntries(3 entries) = %d bytes, %v; want %d", len(p), err, el*3)
	}
	p, err = c.NextEntries(el*2 - 1) // mid-entry budget: round down to 1
	if err != nil || len(p) != el {
		t.Fatalf("NextEntries(mid-entry) = %d bytes, %v; want %d", len(p), err, el)
	}
	p, err = c.NextEntries(1 << 20)
	if err != nil || len(p) != el {
		t.Fatalf("NextEntries(rest) = %d bytes, %v; want %d", len(p), err, el)
	}
	if c.Offset() != f.Offset() {
		t.Fatalf("cursor offset %d, feed offset %d", c.Offset(), f.Offset())
	}
}

// TestHandshakeRoundTrip: both handshake lines and the refusal parse back.
func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFullResync(&buf, 0xdeadbeef, 12345, 1); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHandshake(bufio.NewReader(&buf))
	if err != nil || !h.Full || h.ID != 0xdeadbeef || h.Offset != 12345 {
		t.Fatalf("FULLRESYNC round trip = %+v, %v", h, err)
	}
	buf.Reset()
	if err := WriteContinue(&buf, 999); err != nil {
		t.Fatal(err)
	}
	h, err = ReadHandshake(bufio.NewReader(&buf))
	if err != nil || h.Full || h.Offset != 999 {
		t.Fatalf("CONTINUE round trip = %+v, %v", h, err)
	}
	buf.Reset()
	if err := WriteAbort(&buf, "draining\r\nnow"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHandshake(bufio.NewReader(&buf)); !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("refusal err = %v, want ErrStreamAbort", err)
	}
}

// TestImageChunksRoundTrip: an image larger than one chunk survives the
// chunked framing byte-for-byte, and an abort line mid-stream surfaces as
// ErrStreamAbort with a bounded prefix written.
func TestImageChunksRoundTrip(t *testing.T) {
	img := make([]byte, imageChunkBytes*2+12345)
	for i := range img {
		img[i] = byte(i * 31)
	}
	var wire bytes.Buffer
	n, err := CopyImageChunksAbort(&wire, bytes.NewReader(img), nil)
	if err != nil || n != int64(len(img)) {
		t.Fatalf("CopyImageChunksAbort(nil) = %d, %v", n, err)
	}
	var out bytes.Buffer
	n, err = ReadImage(bufio.NewReader(&wire), &out)
	if err != nil || n != int64(len(img)) {
		t.Fatalf("ReadImage = %d, %v", n, err)
	}
	if !bytes.Equal(out.Bytes(), img) {
		t.Fatal("image bytes mismatch after chunked round trip")
	}

	var aborted bytes.Buffer
	fmt.Fprintf(&aborted, "$4\r\nabcd\r\n")
	WriteAbort(&aborted, "shutting down")
	var sink bytes.Buffer
	if _, err := ReadImage(bufio.NewReader(&aborted), &sink); !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("aborted image err = %v, want ErrStreamAbort", err)
	}
}

// TestCopyImageChunksAbort: an abort firing mid-image cuts the stream with a
// clean "-ERR" line that the reading side surfaces as ErrStreamAbort; an
// abort that never fires streams the image whole.
func TestCopyImageChunksAbort(t *testing.T) {
	img := make([]byte, imageChunkBytes+100)
	var wire bytes.Buffer
	calls := 0
	_, err := CopyImageChunksAbort(&wire, bytes.NewReader(img), func() string {
		calls++
		if calls > 1 {
			return "shutting down"
		}
		return ""
	})
	if !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("sender err = %v, want ErrStreamAbort", err)
	}
	var sink bytes.Buffer
	if _, err := ReadImage(bufio.NewReader(&wire), &sink); !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("reader err = %v, want ErrStreamAbort", err)
	}

	wire.Reset()
	n, err := CopyImageChunksAbort(&wire, bytes.NewReader(img), func() string { return "" })
	if err != nil || n != int64(len(img)) {
		t.Fatalf("no-abort copy = %d, %v", n, err)
	}
	sink.Reset()
	if n, err := ReadImage(bufio.NewReader(&wire), &sink); err != nil || n != int64(len(img)) {
		t.Fatalf("no-abort read = %d, %v", n, err)
	}
}

// TestBootstrapImage: against a scripted in-test primary, BootstrapImage
// writes exactly the streamed image, atomically, and returns the handshake
// metadata; a mid-image abort leaves no file and no temp file behind.
func TestBootstrapImage(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "primary.sock")
	img := make([]byte, 100_000)
	for i := range img {
		img[i] = byte(i)
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				args, _, err := ReadEntry(br)
				if err != nil || len(args) != 3 || string(args[0]) != "PSYNC" {
					return
				}
				WriteFullResync(conn, 0xfeed, 4242, 1)
				CopyImageChunksAbort(conn, bytes.NewReader(img), nil)
			}(conn)
		}
	}()

	path := filepath.Join(dir, "replica.heap")
	id, off, err := BootstrapImage(sock, path)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xfeed || off != 4242 {
		t.Fatalf("handshake meta = (%#x, %d), want (0xfeed, 4242)", id, off)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("bootstrapped image: %d bytes, mismatch", len(got))
	}

	// Aborting primary: image must not appear, temp must not linger.
	abortSock := filepath.Join(dir, "abort.sock")
	aln, err := net.Listen("unix", abortSock)
	if err != nil {
		t.Fatal(err)
	}
	defer aln.Close()
	go func() {
		conn, err := aln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		ReadEntry(br)
		WriteFullResync(conn, 1, 0, 1)
		fmt.Fprintf(conn, "$4\r\nabcd\r\n")
		WriteAbort(conn, "draining")
	}()
	abortPath := filepath.Join(dir, "aborted.heap")
	if _, _, err := BootstrapImage(abortSock, abortPath); !errors.Is(err, ErrStreamAbort) {
		t.Fatalf("aborted bootstrap err = %v, want ErrStreamAbort", err)
	}
	if _, err := os.Stat(abortPath); !os.IsNotExist(err) {
		t.Fatal("aborted bootstrap left the image file")
	}
	if _, err := os.Stat(abortPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("aborted bootstrap left the temp file")
	}
}
