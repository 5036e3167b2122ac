// Package server puts back the network layer the paper's application study
// removed (§6.3 runs memcached "as a library ... instead of sending requests
// over a socket"): a concurrent TCP/unix-socket server that speaks a RESP2
// (Redis serialization protocol) subset over the persistent kvstore, with
// per-connection goroutines and request pipelining. The entire dataset lives
// in the recoverable ralloc heap, so a crashed server restarts through Open →
// Recover, kvstore's attach riding the trace, and keeps serving — see
// killdriver_test.go and cmd/ralloc-serve.
//
// This file is the connection's two ends: the command reader (internal/resp
// framing plus the two leniencies a client connection gets) and the reply
// writer.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/resp"
)

// Reply is one decoded RESP value (what Client.Recv returns).
type Reply = resp.Reply

// respReader reads client commands off a connection. The framing, its limits
// and the storage the arguments live in are internal/resp's decoder; this
// reader adds only what a client connection tolerates and a replication
// stream does not: inline commands and empty arrays.
type respReader struct {
	d *resp.Decoder
}

func newRespReader(r io.Reader) *respReader {
	return &respReader{d: resp.NewDecoder(resp.NewReader(r))}
}

// ReadCommand reads one client command: either a RESP array of bulk strings
// (what real clients send) or an inline command (a plain text line, for
// telnet/netcat debugging). The arguments are views of the reader's storage,
// valid until the next ReadCommand: whoever keeps one copies it. An empty
// command (*0, *-1, a blank inline line) returns no arguments and no error,
// without reading on: the caller skips it, and the replies it already wrote
// are not held back waiting for more input.
func (r *respReader) ReadCommand() ([][]byte, error) {
	first, err := r.d.Peek()
	if err != nil {
		return nil, err
	}
	if first[0] == '*' {
		return r.d.ReadCommand()
	}
	return r.readInline()
}

// readInline parses a whitespace-separated plain-text command line into
// views of the line; a blank line has none.
func (r *respReader) readInline() ([][]byte, error) {
	line, err := resp.ReadLine(r.d.Reader())
	return bytes.Fields(line), err
}

// buffered reports whether more request bytes are already available without
// blocking — the pipelining signal: replies are batched until the input
// drains.
func (r *respReader) buffered() bool { return r.d.Reader().Buffered() > 0 }

// respWriter encodes RESP2 replies. errs counts error replies written — the
// stats layer (boundCmd.invoke) diffs it around a handler call to attribute
// errors to commands without the handler reporting them separately.
type respWriter struct {
	bw   *bufio.Writer
	errs uint64
}

func newRespWriter(w io.Writer) *respWriter {
	return &respWriter{bw: bufio.NewWriterSize(w, 16<<10)}
}

func (w *respWriter) simple(s string) { w.bw.WriteByte('+'); w.bw.WriteString(s); w.crlf() }

// maxErrorBodyLen caps how many message bytes an error reply echoes: error
// text may quote client bytes (an unknown command name can be a bulk up to
// resp.MaxBulkLen), and the reply must stay one short line.
const maxErrorBodyLen = 256

func (w *respWriter) errorf(format string, args ...any) {
	w.errorKind("ERR", fmt.Sprintf(format, args...))
}

// errorKind writes an error reply with a non-ERR prefix (Redis uses the
// first word as a machine-readable error class, e.g. EXECABORT).
func (w *respWriter) errorKind(kind, msg string) {
	w.errs++
	w.bw.WriteByte('-')
	w.bw.WriteString(kind)
	w.bw.WriteByte(' ')
	w.errorBody(msg)
	w.crlf()
}

// errorEcho prepares client bytes for quoting inside an error message:
// truncated to the reply cap *before* the lowercase copy, so echoing a
// hostile resp.MaxBulkLen name costs a short copy, not megabytes of transient
// garbage. errorBody sanitizes and re-caps the final rendering.
func errorEcho(b []byte) string {
	if len(b) > maxErrorBodyLen {
		b = b[:maxErrorBodyLen]
	}
	return strings.ToLower(string(b))
}

// errorBody writes an error message body made wire-safe. Error text is the
// one reply channel that echoes raw client bytes (unknown command and
// subcommand names), and an error reply is a bare CRLF-terminated line — a
// CR or LF inside the message would terminate the reply early and
// desynchronize every reply after it (FuzzDispatch's well-formed-reply
// invariant). Control bytes are replaced with spaces and the body is capped
// at maxErrorBodyLen, the same containment Redis applies when echoing
// unknown-command arguments.
func (w *respWriter) errorBody(msg string) {
	truncated := false
	if len(msg) > maxErrorBodyLen {
		msg, truncated = msg[:maxErrorBodyLen], true
	}
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c < 0x20 || c == 0x7f {
			c = ' '
		}
		w.bw.WriteByte(c)
	}
	if truncated {
		w.bw.WriteString("...")
	}
}
func (w *respWriter) integer(n int64) {
	w.bw.WriteByte(':')
	w.bw.WriteString(strconv.FormatInt(n, 10))
	w.crlf()
}
func (w *respWriter) bulk(b []byte) {
	w.bw.WriteByte('$')
	w.bw.WriteString(strconv.Itoa(len(b)))
	w.crlf()
	w.bw.Write(b)
	w.crlf()
}

const bulkHeaderRoom = 23 // the longest bulk header: '$', 20 digits, CRLF

// bulkInPlace writes buf[bulkHeaderRoom:] as a bulk reply, buf having been
// appended to bw.AvailableBuffer(): the header goes to its front, the payload
// moves up against it, and Write finds the bytes where it would put them.
func (w *respWriter) bulkInPlace(buf []byte) {
	hdr := strconv.AppendInt(append(buf[:0], '$'), int64(len(buf)-bulkHeaderRoom), 10)
	hdr = append(hdr, '\r', '\n')
	n := len(hdr) + copy(buf[len(hdr):], buf[bulkHeaderRoom:])
	w.bw.Write(append(buf[:n], '\r', '\n'))
}
func (w *respWriter) nilBulk()  { w.bw.WriteString("$-1"); w.crlf() }
func (w *respWriter) nilArray() { w.bw.WriteString("*-1"); w.crlf() }
func (w *respWriter) arrayHeader(n int) {
	w.bw.WriteByte('*')
	w.bw.WriteString(strconv.Itoa(n))
	w.crlf()
}
func (w *respWriter) crlf()        { w.bw.WriteString("\r\n") }
func (w *respWriter) flush() error { return w.bw.Flush() }
