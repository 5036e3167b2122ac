// Package resp is the RESP2 framing every socket in the repository speaks:
// client commands, replication feed entries, PSYNC requests and replies are
// all decoded and encoded here, under the one limit block below. The serving
// layer (internal/server) and the replication link (internal/repl) keep only
// what is theirs in front of it — inline commands and empty-array skipping
// for a client connection, the "-ERR" abort line for a replication stream —
// so a replica accepts exactly the entries its primary accepted, by
// construction rather than by keeping two sets of constants in step.
package resp

import (
	"bufio"
	"errors"
	"io"
	"strconv"
)

// Protocol limits: a garbage or hostile header must not make the reader
// allocate unboundedly. They bind every peer alike — a primary that accepted
// a command propagates it, and a replica with a tighter limit would refuse
// the entry, drop the link, resync to the same offset and refuse it again,
// forever.
const (
	MaxArgs    = 1 << 20  // arguments per command
	MaxBulkLen = 64 << 20 // bytes per bulk string
	MaxLineLen = 64 << 10 // bytes per protocol line
	// maxReplyDepth bounds nested array replies. ReadReply recurses per
	// nesting level, and Go stack exhaustion is a fatal error, not a
	// recoverable panic — FuzzParseReply found that a stream of "*1\r\n"
	// headers (4 bytes per level) could otherwise run the decoder out of
	// stack. Real replies in this protocol subset nest at most 1 deep.
	maxReplyDepth = 32
	// reserveCap bounds the slots reserved from an array header alone: a
	// hostile "*1048576" is 12 bytes on the wire and must not reserve
	// megabytes up front. append grows the slice as real data arrives.
	reserveCap = 64
)

// MaxCommandBytes caps one command's cumulative declared bulk payload:
// MaxArgs×MaxBulkLen individually-legal bulks would otherwise let a single
// command demand terabytes of transient allocation before dispatch (or the
// transaction byte meter) ever sees it. The declared length is checked
// before the decoder makes room for the bulk. A var, not a const, so the
// oversized-command tests don't need to stream real gigabytes.
var MaxCommandBytes = int64(512 << 20)

// Error is a protocol violation: the stream may be desynchronized, so the
// reader's owner reports it (a server with an -ERR reply) and closes the
// connection.
type Error string

func (e Error) Error() string { return string(e) }

// NewReader wraps r in a buffer of exactly MaxLineLen: ReadLine treats a
// line that overflows the buffer as a protocol error, so every reader handed
// to this package must come from here.
func NewReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, MaxLineLen) }

// ReadLine reads one CRLF-terminated line, excluding the terminator. The
// slice aliases br's buffer and is valid until the next read.
func ReadLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, Error("protocol line too long")
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, Error("line not CRLF-terminated")
	}
	return line[:len(line)-2], nil
}

// Decoder reads commands — client commands, replication feed entries — off
// one stream into storage it reuses: buf holds the current command's exact
// wire bytes (a replica's copy of an entry is buf itself) and args are views
// of the arguments inside it. What ReadCommand and Raw return is valid until
// the decoder's next call; whoever keeps an argument copies it.
type Decoder struct {
	br   *bufio.Reader
	buf  []byte
	args [][]byte // slots past len are nil or point into buf, never into an outgrown array
}

// What an idle decoder may hold; the longest canonical bulk header line.
const maxIdleBuf, maxIdleArgs, maxHeaderLen = 64 << 10, 1024, 21

// NewDecoder reads commands from br, which must come from NewReader.
func NewDecoder(br *bufio.Reader) *Decoder { return &Decoder{br: br} }

// Reader returns the stream: handshake and inline lines share it.
func (d *Decoder) Reader() *bufio.Reader { return d.br }

// Raw returns the exact wire bytes of the command ReadCommand last decoded.
func (d *Decoder) Raw() []byte { return d.buf }

// Peek returns the next command's first byte, unconsumed. A connection blocks
// here between commands, so it first lets go of what one large command grew.
func (d *Decoder) Peek() ([]byte, error) {
	if d.br.Buffered() == 0 && (cap(d.buf) > maxIdleBuf || cap(d.args) > maxIdleArgs) {
		d.buf, d.args = nil, nil
	}
	return d.br.Peek(1)
}

// reserve makes room for n more bytes. A move re-points the arguments so far:
// each spans to the old array's end, so the capacities' difference is its offset.
func (d *Decoder) reserve(n int) {
	old := d.buf
	if n <= cap(old)-len(old) {
		return
	}
	d.buf = append(make([]byte, 0, max(2*cap(old), len(old)+n)), old...)
	for i, a := range d.args {
		off := cap(old) - cap(a)
		d.args[i] = d.buf[off : off+len(a)]
	}
	clear(d.args[len(d.args):cap(d.args)])
}

// ReadCommand decodes one array of bulk strings strictly: the next byte must
// open a "*<n>" header. An empty or null array ("*0", "*-1") returns no
// arguments and no error; what that means is the caller's policy. Storage
// grows by what a bulk header declares, once charged to MaxCommandBytes.
func (d *Decoder) ReadCommand() ([][]byte, error) {
	d.buf, d.args = d.buf[:0], d.args[:0]
	header, err := ReadLine(d.br)
	if err != nil {
		return nil, err
	}
	if len(header) == 0 || header[0] != '*' {
		return nil, Error("expected multibulk")
	}
	n, err := strconv.ParseInt(string(header[1:]), 10, 64)
	if err != nil || n > MaxArgs {
		return nil, Error("invalid multibulk length")
	}
	d.reserve(len(header) + 2)
	d.buf = append(append(d.buf, header...), '\r', '\n') // ReadLine cut the terminator off
	budget := MaxCommandBytes
	for i := int64(0); i < n; i++ {
		line, err := ReadLine(d.br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 || line[0] != '$' {
			return nil, Error("expected bulk string")
		}
		size, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil || size < 0 || size > MaxBulkLen { // a command has no null arguments
			return nil, Error("invalid bulk length")
		}
		// buf keeps the header: padding past a canonical one's length is charged too.
		if budget -= size + int64(max(0, len(line)-maxHeaderLen)); budget < 0 {
			return nil, Error("command too large")
		}
		d.reserve(len(line) + 2 + int(size) + 2)
		d.buf = append(append(d.buf, line...), '\r', '\n')
		body := d.buf[len(d.buf) : len(d.buf)+int(size)+2]
		if _, err := io.ReadFull(d.br, body); err != nil {
			return nil, err
		}
		if body[size] != '\r' || body[size+1] != '\n' {
			return nil, Error("bulk not CRLF-terminated")
		}
		d.buf = d.buf[:len(d.buf)+len(body)]
		d.args = append(d.args, body[:size])
	}
	// Nothing moves any more; an append to an argument must not reach the next.
	for i, a := range d.args {
		d.args[i] = a[:len(a):len(a)]
	}
	return d.args, nil
}

// ReadCommand is Decoder.ReadCommand with storage of its own per call: the
// arguments stay valid. raw, if not nil, has the exact wire bytes appended.
func ReadCommand(br *bufio.Reader, raw *[]byte) ([][]byte, error) {
	d := NewDecoder(br)
	args, err := d.ReadCommand()
	if raw != nil {
		*raw = append(*raw, d.buf...)
	}
	return args, err
}

// CommandLen is len(AppendCommand(nil, args)).
func CommandLen(args [][]byte) int {
	n := 1 + decimalLen(len(args)) + 2
	for _, a := range args {
		n += 1 + decimalLen(len(a)) + 2 + len(a) + 2
	}
	return n
}

func decimalLen(n int) (d int) {
	for d = 1; n >= 10; n /= 10 {
		d++
	}
	return d
}

// AppendCommand appends args as an array of bulk strings — the canonical
// encoding ReadCommand decodes, and the replication feed's byte format.
func AppendCommand(dst []byte, args [][]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// Reply is one decoded RESP value.
type Reply struct {
	Kind  byte // '+', '-', ':', '$', '*'
	Str   string
	Int   int64
	Bulk  []byte // nil bulk replies leave this nil with Nil set
	Nil   bool
	Elems []Reply
}

// Err returns the reply's error, if it is an error reply.
func (rp Reply) Err() error {
	if rp.Kind == '-' {
		return errors.New(rp.Str)
	}
	return nil
}

// Text renders the reply's payload as a string (simple string, error text,
// integer, or bulk body).
func (rp Reply) Text() string {
	switch rp.Kind {
	case '+', '-':
		return rp.Str
	case ':':
		return strconv.FormatInt(rp.Int, 10)
	case '$':
		return string(rp.Bulk)
	}
	return ""
}

// ReadReply decodes one RESP reply from br.
func ReadReply(br *bufio.Reader) (Reply, error) { return readReply(br, 0) }

func readReply(br *bufio.Reader, depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, Error("reply nested too deeply")
	}
	line, err := ReadLine(br)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, Error("malformed reply line")
	}
	switch line[0] {
	case '+', '-':
		return Reply{Kind: line[0], Str: string(line[1:])}, nil
	case ':':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return Reply{}, Error("malformed integer reply")
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil || n > MaxBulkLen {
			return Reply{}, Error("invalid bulk length")
		}
		if n < 0 {
			return Reply{Kind: '$', Nil: true}, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Reply{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Reply{}, Error("bulk not CRLF-terminated")
		}
		return Reply{Kind: '$', Bulk: buf[:n]}, nil
	case '*':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil || n > MaxArgs {
			return Reply{}, Error("malformed array length")
		}
		if n < 0 {
			return Reply{Kind: '*', Nil: true}, nil
		}
		elems := make([]Reply, 0, min(n, reserveCap))
		for i := int64(0); i < n; i++ {
			e, err := readReply(br, depth+1)
			if err != nil {
				return Reply{}, err
			}
			elems = append(elems, e)
		}
		return Reply{Kind: '*', Elems: elems}, nil
	}
	return Reply{}, Error("unknown reply type")
}
