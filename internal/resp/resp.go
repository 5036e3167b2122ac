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
// before each bulk's buffer is allocated. A var, not a const, so the
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

// readBulk reads one bulk string given its header line after the '$' — the
// only place a "$<n>" payload is brought into memory. The declared length is
// checked against MaxBulkLen and, when budget is non-nil, charged to it
// before the buffer is allocated. A negative length is the null bulk: nil,
// no error. The returned slice has the terminator just past its length, so
// b[:len(b)+2] is the exact wire body.
func readBulk(br *bufio.Reader, hdr []byte, budget *int64) ([]byte, error) {
	n, err := strconv.ParseInt(string(hdr), 10, 64)
	if err != nil || n > MaxBulkLen {
		return nil, Error("invalid bulk length")
	}
	if n < 0 {
		return nil, nil
	}
	if budget != nil {
		if *budget -= n; *budget < 0 {
			return nil, Error("command too large")
		}
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, Error("bulk not CRLF-terminated")
	}
	return buf[:n], nil
}

// ReadCommand decodes one array of bulk strings — a client command or a
// replication feed entry — strictly: the next byte must open a "*<n>"
// header. An empty or null array ("*0", "*-1") returns no arguments and no
// error; what that means is the caller's policy. With raw non-nil the
// command's exact wire bytes are appended to *raw. The argument slices are
// freshly allocated.
func ReadCommand(br *bufio.Reader, raw *[]byte) ([][]byte, error) {
	header, err := ReadLine(br)
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
	if raw != nil {
		*raw = append(append(*raw, header...), '\r', '\n')
	}
	if n <= 0 {
		return nil, nil
	}
	args := make([][]byte, 0, min(n, reserveCap))
	budget := MaxCommandBytes
	for i := int64(0); i < n; i++ {
		line, err := ReadLine(br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 || line[0] != '$' {
			return nil, Error("expected bulk string")
		}
		if raw != nil {
			*raw = append(append(*raw, line...), '\r', '\n')
		}
		b, err := readBulk(br, line[1:], &budget)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, Error("invalid bulk length") // a command has no null arguments
		}
		if raw != nil {
			*raw = append(*raw, b[:len(b)+2]...)
		}
		args = append(args, b)
	}
	return args, nil
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
		b, err := readBulk(br, line[1:], nil)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: '$', Bulk: b, Nil: b == nil}, nil
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
