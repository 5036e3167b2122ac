package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// Native Go fuzzing over the reply decoder (the command decoder is fuzzed
// through its two callers: FuzzReadCommand in internal/server, FuzzReadEntry
// in internal/repl). For ANY byte stream the parser must return replies or
// a clean error, never panic, never run the stack out (ReadReply recurses
// per array nesting level; maxReplyDepth is the fix this fuzzer motivated),
// and never allocate unboundedly from a tiny header.

// fuzzSeedReplies is the seed corpus for the client-side reply reader.
var fuzzSeedReplies = []string{
	"+OK\r\n",
	"-ERR unknown command\r\n",
	":1234\r\n",
	":-2\r\n",
	"$5\r\nhello\r\n",
	"$0\r\n\r\n",
	"$-1\r\n",
	"*2\r\n$1\r\na\r\n:2\r\n",
	"*0\r\n",
	"*-1\r\n",
	// Pipelined replies.
	"+OK\r\n:1\r\n$2\r\nhi\r\n",
	// Nested and deeply-nested arrays (the stack-exhaustion case).
	"*1\r\n*1\r\n*1\r\n:1\r\n",
	strings.Repeat("*1\r\n", 64) + ":1\r\n",
	// Truncated and malformed.
	"$5\r\nab",
	"*3\r\n+OK\r\n",
	":abc\r\n",
	"$abc\r\n",
	"*abc\r\n",
	"?\r\n",
	"+\r\n",
	"*99999999999999999999\r\n",
	"$99999999999\r\n",
	"$3\r\nabcXY", // bulk body not CRLF-terminated
	"+OK\n",
	"",
	"\x00\x01\x02",
}

func FuzzParseReply(f *testing.F) {
	for _, s := range fuzzSeedReplies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			rp, err := ReadReply(br)
			if err != nil {
				var pe Error
				if !errors.As(err, &pe) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				return
			}
			switch rp.Kind {
			case '+', '-', ':', '$', '*':
			default:
				t.Fatalf("reply with invalid kind %q", rp.Kind)
			}
		}
	})
}

// TestReplyDepthLimit pins the fix FuzzParseReply motivated: a hostile
// stream of nested array headers must fail with a protocol error instead of
// recursing the decoder toward stack exhaustion (a fatal, unrecoverable
// error in Go).
func TestReplyDepthLimit(t *testing.T) {
	hostile := strings.Repeat("*1\r\n", 100000) + ":1\r\n"
	_, err := ReadReply(NewReader(strings.NewReader(hostile)))
	var pe Error
	if !errors.As(err, &pe) {
		t.Fatalf("deeply nested reply returned %v, want resp.Error", err)
	}
	// Modest nesting still decodes.
	ok := strings.Repeat("*1\r\n", 8) + ":7\r\n"
	rp, err := ReadReply(NewReader(strings.NewReader(ok)))
	if err != nil {
		t.Fatalf("8-deep reply failed: %v", err)
	}
	for i := 0; i < 8; i++ {
		if rp.Kind != '*' || len(rp.Elems) != 1 {
			t.Fatalf("level %d: kind %q, %d elems", i, rp.Kind, len(rp.Elems))
		}
		rp = rp.Elems[0]
	}
	if rp.Kind != ':' || rp.Int != 7 {
		t.Fatalf("innermost reply = %+v", rp)
	}
}

func isProtoErr(err error, substr string) bool {
	var pe Error
	return errors.As(err, &pe) && strings.Contains(string(pe), substr)
}

// command is n one-byte bulks behind a "*n" header.
func command(n int) []byte {
	b := []byte(fmt.Sprintf("*%d\r\n", n))
	return append(b, bytes.Repeat([]byte("$1\r\na\r\n"), n)...)
}

// TestReadCommandLimits is the one limit block at its boundaries: what the
// decoder accepts it hands back byte-exact, what it refuses it refuses
// before allocating for it.
func TestReadCommandLimits(t *testing.T) {
	for _, tc := range []struct {
		name, wire string
		args       int    // expected argument count when err is ""
		err        string // expected protocol-error substring
	}{
		{"MaxArgs", string(command(MaxArgs)), MaxArgs, ""},
		{"MaxArgs+1", string(command(MaxArgs + 1)), 0, "invalid multibulk length"},
		{"empty array", "*0\r\n", 0, ""},
		{"null array", "*-1\r\n", 0, ""},
		{"null argument", "*1\r\n$-1\r\n", 0, "invalid bulk length"},
		{"bulk over MaxBulkLen", fmt.Sprintf("*1\r\n$%d\r\n", MaxBulkLen+1), 0, "invalid bulk length"},
		{"bulk not CRLF-terminated", "*1\r\n$3\r\nabcXY", 0, "not CRLF-terminated"},
		{"not an array", "+OK\r\n", 0, "expected multibulk"},
		{"non-bulk element", "*1\r\n:5\r\n", 0, "expected bulk string"},
		{"line over MaxLineLen", "*1\r\n$" + strings.Repeat("1", MaxLineLen) + "\r\n", 0, "line too long"},
	} {
		var raw []byte
		args, err := ReadCommand(NewReader(strings.NewReader(tc.wire)), &raw)
		switch {
		case tc.err != "":
			if !isProtoErr(err, tc.err) {
				t.Errorf("%s: err = %v, want protocol error %q", tc.name, err, tc.err)
			}
		case err != nil || len(args) != tc.args:
			t.Errorf("%s: %d args, %v; want %d", tc.name, len(args), err, tc.args)
		case string(raw) != tc.wire:
			t.Errorf("%s: raw bytes differ from the wire (%d vs %d bytes)", tc.name, len(raw), len(tc.wire))
		}
	}
}

// allocated reports the bytes fn allocates (other goroutines are idle in
// this package's tests).
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestHostileHeadersAllocateLittle: an array header alone — 12 bytes on the
// wire — reserves at most reserveCap slots (131072 would be 3 MiB), and
// declared bulk bytes past MaxCommandBytes cut the stream before the
// offending buffer exists.
func TestHostileHeadersAllocateLittle(t *testing.T) {
	br := NewReader(strings.NewReader(""))
	if n := allocated(func() {
		br.Reset(strings.NewReader("*131072\r\n"))
		if _, err := ReadCommand(br, nil); err != io.EOF {
			t.Errorf("header-only stream: %v, want EOF", err)
		}
	}); n > 16<<10 {
		t.Fatalf("a bare *131072 header allocated %d bytes", n)
	}

	old := MaxCommandBytes
	MaxCommandBytes = 1 << 10
	defer func() { MaxCommandBytes = old }()
	// Two 600-byte bulks against a 1 KiB budget, then a third declaring
	// MaxBulkLen: the second header is refused, nothing of its size exists.
	wire := "*3\r\n$600\r\n" + strings.Repeat("x", 600) + fmt.Sprintf("\r\n$%d\r\n", MaxBulkLen)
	if n := allocated(func() {
		br.Reset(strings.NewReader(wire))
		if _, err := ReadCommand(br, nil); !isProtoErr(err, "too large") {
			t.Errorf("over-budget command: %v, want 'command too large'", err)
		}
	}); n > 16<<10 {
		t.Fatalf("an over-budget bulk header allocated %d bytes", n)
	}
}

// TestReadReplyChecksBulkTerminator: a bulk reply whose body is not followed
// by CRLF is a protocol error, not a 3-byte bulk and a desynchronized stream.
func TestReadReplyChecksBulkTerminator(t *testing.T) {
	if rp, err := ReadReply(NewReader(strings.NewReader("$3\r\nabcXY"))); !isProtoErr(err, "not CRLF-terminated") {
		t.Fatalf("ReadReply = %+v, %v; want protocol error", rp, err)
	}
}

// stream serves its chunks one Read at a time and calls idle where a socket
// would block: at the Read that finds nothing left.
type stream struct {
	chunks [][]byte
	idle   func()
}

func (s *stream) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		s.idle()
		return 0, io.EOF
	}
	n := copy(p, s.chunks[0])
	if s.chunks[0] = s.chunks[0][n:]; len(s.chunks[0]) == 0 {
		s.chunks = s.chunks[1:]
	}
	return n, nil
}

// TestDecoderReusesItsStorage: after the first command of a shape the decoder
// allocates nothing for the next, the arguments are views of the exact wire
// bytes Raw returns, and they stay right when a later argument makes the
// buffer move.
func TestDecoderReusesItsStorage(t *testing.T) {
	wire := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$300\r\n" + strings.Repeat("v", 300) + "\r\n"
	src := strings.NewReader("")
	d := NewDecoder(NewReader(src))
	read := func() {
		src.Reset(wire)
		args, err := d.ReadCommand()
		if err != nil || len(args) != 3 || string(args[0]) != "SET" || string(args[1]) != "k" || len(args[2]) != 300 {
			t.Fatalf("decoded %q, %v", args, err)
		}
		if string(d.Raw()) != wire {
			t.Fatalf("raw bytes differ from the wire: %q", d.Raw())
		}
		if cap(args[1]) != 1 {
			t.Fatalf("argument capacity %d reaches the bytes behind it", cap(args[1]))
		}
	}
	read() // the buffer moves twice under "SET" and "k" here
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a repeated command allocates %v times", n)
	}
}

// TestDecoderTrimsBeforeItBlocks: what one large command grew is let go
// before the decoder waits for the next one — sent as the last of its stream,
// an idle connection would otherwise hold it for good — and not while the
// next command is already buffered behind it.
func TestDecoderTrimsBeforeItBlocks(t *testing.T) {
	small := command(3)
	for _, tc := range []struct {
		name string
		big  []byte
	}{
		{"8 MiB bulk", []byte("*1\r\n$8388608\r\n" + strings.Repeat("x", 8<<20) + "\r\n")},
		{"100000 arguments", command(100000)},
	} {
		var d *Decoder
		idled := false
		src := &stream{chunks: [][]byte{small, tc.big}, idle: func() {
			idled = true
			if cap(d.buf) > maxIdleBuf || cap(d.args) > maxIdleArgs {
				t.Errorf("%s: blocking with %d buffer bytes and %d argument slots held", tc.name, cap(d.buf), cap(d.args))
			}
			for _, a := range d.args[:cap(d.args)] {
				if a != nil {
					t.Errorf("%s: a kept slot still points into the dropped buffer", tc.name)
					break
				}
			}
		}}
		d = NewDecoder(NewReader(src))
		for {
			if _, err := d.Peek(); err != nil {
				break
			}
			if _, err := d.ReadCommand(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !idled || cap(d.buf) != 0 {
			t.Fatalf("%s: idled %v holding %d buffer bytes", tc.name, idled, cap(d.buf))
		}
	}

	big := command(100000)
	d := NewDecoder(NewReader(bytes.NewReader(append(big, small...))))
	for i := 0; i < 2; i++ {
		if _, err := d.Peek(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadCommand(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(d.buf) < len(big) {
		t.Fatalf("the buffer was dropped with a command buffered behind the large one: %d bytes left", cap(d.buf))
	}
}

// TestPaddedHeadersAreCharged: a bulk header may be padded to MaxLineLen, and
// the decoder keeps a command's exact bytes — so padding past what a
// canonical header needs counts against MaxCommandBytes like payload.
func TestPaddedHeadersAreCharged(t *testing.T) {
	old := MaxCommandBytes
	MaxCommandBytes = 1 << 10
	defer func() { MaxCommandBytes = old }()
	padded := "$" + strings.Repeat("0", 400) + "1\r\na\r\n"
	if _, err := ReadCommand(NewReader(strings.NewReader("*2\r\n"+padded+padded)), nil); err != nil {
		t.Fatalf("800 bytes of padding against a 1 KiB budget: %v", err)
	}
	if _, err := ReadCommand(NewReader(strings.NewReader("*3\r\n"+padded+padded+padded)), nil); !isProtoErr(err, "too large") {
		t.Fatalf("1200 bytes of padding against a 1 KiB budget: %v, want 'command too large'", err)
	}
}

func TestCommandLen(t *testing.T) {
	for _, args := range [][][]byte{
		nil,
		{[]byte("PING")},
		{[]byte("SET"), []byte(""), bytes.Repeat([]byte("v"), 12345)},
		make([][]byte, 1000),
	} {
		if got, want := CommandLen(args), len(AppendCommand(nil, args)); got != want {
			t.Errorf("CommandLen of %d arguments = %d, encoded %d", len(args), got, want)
		}
	}
}
