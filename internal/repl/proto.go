package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"repro/internal/pmem"
	"repro/internal/resp"
)

// Wire format. The replication link speaks three shapes, all RESP-derived:
//
//   - feed entries: canonical RESP arrays of bulk strings — exactly what
//     the server's own reader accepts, decoded by the same internal/resp
//     code under the same limits, so a replica can hand entries straight to
//     dispatch and never refuses one its primary accepted. The feed offset
//     counts these bytes.
//   - handshake lines: "+FULLRESYNC <id-hex> <offset>\r\n" (an image
//     follows, then the feed from <offset>) or "+CONTINUE <offset>\r\n"
//     (the feed resumes at <offset>, no image).
//   - the bootstrap image: a sequence of non-empty chunks "$<n>\r\n<n
//     bytes>\r\n" terminated by an empty chunk "$0\r\n\r\n", so the
//     replica knows the image ended cleanly rather than the connection
//     dying mid-stream.
//
// At any entry or chunk boundary the sender may emit a "-ERR ...\r\n" line
// instead: a clean abort (primary shutting down mid-PSYNC). Readers surface
// it as ErrStreamAbort so the replica logs the reason and reconnects,
// instead of waiting out a TCP timeout on a wedged stream.
//
// Every reader here takes a *bufio.Reader from resp.NewReader: the buffer
// size is the line-length limit.

// imageChunkBytes is the bulk size the image streams in.
const imageChunkBytes = 256 << 10

// ErrStreamAbort is wrapped around the sender's message when the stream is
// cleanly aborted with a "-ERR" line.
var ErrStreamAbort = errors.New("repl: stream aborted by peer")

// ErrProto reports a malformed replication stream.
var ErrProto = errors.New("repl: protocol error")

// streamErr reports a framing violation found by internal/resp as ErrProto;
// I/O errors pass through.
func streamErr(err error) error {
	var pe resp.Error
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %s", ErrProto, string(pe))
	}
	return err
}

// streamLine reads one protocol line of the replication stream. A "-..."
// line is the peer's clean abort — legal at every entry, chunk and handshake
// boundary — and comes back as ErrStreamAbort carrying its message.
func streamLine(br *bufio.Reader) ([]byte, error) {
	line, err := resp.ReadLine(br)
	if err != nil {
		return nil, streamErr(err)
	}
	if len(line) > 0 && line[0] == '-' {
		return nil, fmt.Errorf("%w: %s", ErrStreamAbort, strings.TrimPrefix(string(line[1:]), "ERR "))
	}
	return line, nil
}

// AppendEntry appends the canonical RESP encoding of args to dst and
// returns it. This is the feed's byte format: what Append offsets count and
// what the replica's reader decodes.
func AppendEntry(dst []byte, args [][]byte) []byte { return resp.AppendCommand(dst, args) }

// ReadEntryFrom decodes the next feed entry on d's stream, returning the
// parsed arguments and the entry's exact wire bytes (what AppendRaw
// re-appends on a replica), both valid until d's next read. A "-..." line at
// the boundary returns ErrStreamAbort carrying the sender's message;
// anything but a non-empty array of bulk strings is ErrProto.
func ReadEntryFrom(d *resp.Decoder) (args [][]byte, raw []byte, err error) {
	first, err := d.Peek()
	if err != nil {
		return nil, nil, err
	}
	if first[0] == '-' {
		_, err := streamLine(d.Reader())
		return nil, nil, err
	}
	args, err = d.ReadCommand()
	if err == nil && len(args) == 0 {
		err = resp.Error("empty entry")
	}
	if err != nil {
		return nil, nil, streamErr(err)
	}
	return args, d.Raw(), nil
}

// ReadEntry is ReadEntryFrom with storage of its own per entry.
func ReadEntry(br *bufio.Reader) (args [][]byte, raw []byte, err error) {
	return ReadEntryFrom(resp.NewDecoder(br))
}

// Handshake is the parsed reply to a PSYNC request.
type Handshake struct {
	Full   bool   // true: FULLRESYNC (image follows); false: CONTINUE
	ID     uint64 // stream ID (FULLRESYNC only)
	Offset uint64 // stream offset the feed will start/resume at
	// Shards is the number of checkpoint images that follow a FULLRESYNC
	// (one per shard of the primary's keyspace, streamed sequentially).
	// The single-shard handshake omits the field on the wire — Shards is 1
	// then — so single-shard peers from before the cluster layer
	// interoperate unchanged.
	Shards int
}

// WriteFullResync writes the full-resync handshake line. shards is the
// number of images that follow; values <= 1 write the original two-field
// line (byte-compatible with pre-cluster replicas).
func WriteFullResync(w io.Writer, id, off uint64, shards int) error {
	if shards <= 1 {
		_, err := fmt.Fprintf(w, "+FULLRESYNC %016x %d\r\n", id, off)
		return err
	}
	_, err := fmt.Fprintf(w, "+FULLRESYNC %016x %d %d\r\n", id, off, shards)
	return err
}

// WriteContinue writes the partial-resync handshake line.
func WriteContinue(w io.Writer, off uint64) error {
	_, err := fmt.Fprintf(w, "+CONTINUE %d\r\n", off)
	return err
}

// WriteAbort writes the clean-abort error line a reader surfaces as
// ErrStreamAbort. msg must be a single line; CR/LF are replaced.
func WriteAbort(w io.Writer, msg string) error {
	msg = strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, msg)
	_, err := fmt.Fprintf(w, "-ERR %s\r\n", msg)
	return err
}

// PSyncRequest encodes the request that opens a replication stream: resume
// stream id at offset off, or — id 0, no position to offer — a full resync
// ("PSYNC ? 0").
func PSyncRequest(id, off uint64) []byte {
	pos := [2]string{"?", "0"}
	if id != 0 {
		pos = [2]string{fmt.Sprintf("%016x", id), strconv.FormatUint(off, 10)}
	}
	return resp.AppendCommand(nil, [][]byte{[]byte("PSYNC"), []byte(pos[0]), []byte(pos[1])})
}

// ReadHandshake parses the reply to PSYNC: FULLRESYNC, CONTINUE, or a
// "-ERR" refusal (returned as ErrStreamAbort).
func ReadHandshake(br *bufio.Reader) (Handshake, error) {
	var h Handshake
	line, err := streamLine(br)
	if err != nil {
		return h, err
	}
	if len(line) == 0 || line[0] != '+' {
		return h, fmt.Errorf("%w: bad handshake %q", ErrProto, line)
	}
	fields := strings.Fields(string(line[1:]))
	switch {
	case (len(fields) == 3 || len(fields) == 4) && fields[0] == "FULLRESYNC":
		id, err1 := strconv.ParseUint(fields[1], 16, 64)
		off, err2 := strconv.ParseUint(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return h, fmt.Errorf("%w: bad FULLRESYNC %q", ErrProto, line)
		}
		shards := 1
		if len(fields) == 4 {
			n, err := strconv.Atoi(fields[3])
			if err != nil || n < 2 || n > 256 {
				return h, fmt.Errorf("%w: bad FULLRESYNC shard count %q", ErrProto, line)
			}
			shards = n
		}
		return Handshake{Full: true, ID: id, Offset: off, Shards: shards}, nil
	case len(fields) == 2 && fields[0] == "CONTINUE":
		off, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return h, fmt.Errorf("%w: bad CONTINUE %q", ErrProto, line)
		}
		return Handshake{Offset: off}, nil
	default:
		return h, fmt.Errorf("%w: bad handshake %q", ErrProto, line)
	}
}

// CopyImageChunksAbort streams r to w in the chunked-bulk image framing,
// finishing with the empty terminator chunk, and returns the image byte
// count. abort, when non-nil, is asked between chunks: a non-empty reason
// cuts the stream with a clean "-ERR" line (legal at a chunk boundary) and
// returns ErrStreamAbort — a primary shutting down mid-PSYNC leaves the
// replica a parseable refusal instead of a wedged or torn image stream.
func CopyImageChunksAbort(w io.Writer, r io.Reader, abort func() string) (int64, error) {
	buf := make([]byte, imageChunkBytes)
	var total int64
	for {
		if abort != nil {
			if msg := abort(); msg != "" {
				if err := WriteAbort(w, msg); err != nil {
					return total, err
				}
				return total, fmt.Errorf("%w: %s", ErrStreamAbort, msg)
			}
		}
		n, rerr := r.Read(buf)
		if n > 0 {
			if _, err := fmt.Fprintf(w, "$%d\r\n", n); err != nil {
				return total, err
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return total, err
			}
			if _, err := io.WriteString(w, "\r\n"); err != nil {
				return total, err
			}
			total += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return total, rerr
		}
	}
	_, err := io.WriteString(w, "$0\r\n\r\n")
	return total, err
}

// ReadImage consumes a chunked image stream from br into dst, returning the
// image byte count. A "-ERR" line at a chunk boundary aborts cleanly.
func ReadImage(br *bufio.Reader, dst io.Writer) (int64, error) {
	var total int64
	buf := make([]byte, 32<<10)
	for {
		line, err := streamLine(br)
		if err != nil {
			return total, err
		}
		if len(line) == 0 || line[0] != '$' {
			return total, fmt.Errorf("%w: bad chunk header %q", ErrProto, line)
		}
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < 0 || n > imageChunkBytes*4 {
			return total, fmt.Errorf("%w: bad chunk length %q", ErrProto, line)
		}
		if n > 0 {
			c, err := io.CopyBuffer(dst, io.LimitReader(br, int64(n)), buf)
			total += c
			if err == nil && c < int64(n) {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return total, err
			}
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return total, err
		}
		if crlf != [2]byte{'\r', '\n'} {
			return total, fmt.Errorf("%w: chunk not CRLF-terminated", ErrProto)
		}
		if n == 0 {
			return total, nil
		}
	}
}

// Dial connects to a replication peer address. Addresses containing a path
// separator are unix sockets; everything else is TCP — the same convention
// the serving layer's client uses.
func Dial(addr string) (net.Conn, error) {
	network := "tcp"
	if strings.Contains(addr, "/") {
		network = "unix"
	}
	return net.Dial(network, addr)
}

// Sync is the replica's side of PSYNC before its heap exists. It dials the
// primary at addr and asks to resume the stream position (id, off) a local
// image's header carries; id 0 — no image — asks for a full resync
// ("PSYNC ? 0"). On CONTINUE it reports partial=true and disconnects (the
// served process reopens the link itself). On FULLRESYNC it downloads the
// image(s) the primary produced on this same connection into paths — one per
// shard, so probing never costs a checkpoint that is then thrown away — and
// returns the position they correspond to. The feed after the images is
// deliberately not consumed: applying must wait for a served process, and
// the backlog covers the gap.
//
// The primary's shard count must equal len(paths): a replica configured with
// a different -cluster-shards would route keys differently and silently
// diverge, so the mismatch is an error here, before any heap exists.
//
// Publish order is the crash contract. Every image is staged in a temp file
// and only then renamed into place, paths[0] LAST: shard 0's header is the
// record a restart reads to decide what it may resume from, so it must not
// name the new position before the images it vouches for are all in place. A
// download that dies anywhere leaves paths[0] old or absent, and no temp
// file.
func Sync(addr string, paths []string, id, off uint64) (partial bool, newID, newOff uint64, err error) {
	conn, err := Dial(addr)
	if err != nil {
		return false, 0, 0, err
	}
	defer conn.Close()
	if _, err := conn.Write(PSyncRequest(id, off)); err != nil {
		return false, 0, 0, err
	}
	br := resp.NewReader(conn)
	h, err := ReadHandshake(br)
	if err != nil {
		return false, 0, 0, err
	}
	if !h.Full {
		if id == 0 {
			return false, 0, 0, fmt.Errorf("%w: CONTINUE in response to PSYNC ? 0", ErrProto)
		}
		return true, id, h.Offset, nil
	}
	if h.Shards != len(paths) {
		return false, 0, 0, fmt.Errorf("primary streams %d shard image(s), this replica is configured for %d", h.Shards, len(paths))
	}
	staged := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range staged { // whatever was not published
			f.Close()
			os.Remove(f.Name())
		}
	}()
	for _, path := range paths {
		f, err := os.Create(path + ".tmp")
		if err != nil {
			return false, 0, 0, err
		}
		staged = append(staged, f)
		if _, err := ReadImage(br, f); err != nil {
			return false, 0, 0, err
		}
	}
	for i := len(paths) - 1; i >= 0; i-- {
		f := staged[i]
		staged = staged[:i]
		if err := pmem.PublishFile(f, paths[i], nil); err != nil {
			return false, 0, 0, err
		}
	}
	return false, h.ID, h.Offset, nil
}

// BootstrapImage is Sync for a fresh single-image replica: a full resync
// into path.
func BootstrapImage(addr, path string) (id, off uint64, err error) {
	_, id, off, err = Sync(addr, []string{path}, 0, 0)
	return id, off, err
}
