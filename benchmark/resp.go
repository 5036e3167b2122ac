package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// A minimal RESP2 client owned by the benchmark (not server.Client): it
// encodes a batch into one write, reads the replies without allocating, and
// checks every reply against the op that caused it.

type reply struct {
	kind byte   // '+', '-', ':', '$' or '*'
	n    int64  // integer value, bulk length (-1 = nil) or array length
	data []byte // status/error text or bulk bytes; valid until the next read
}

type client struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	bulk []byte
}

func newClient(nc net.Conn) *client {
	return &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

func dialUnix(sock string) (*client, error) {
	nc, err := net.DialTimeout("unix", sock, time.Second)
	if err != nil {
		return nil, err
	}
	return newClient(nc), nil
}

func (c *client) close() { c.nc.Close() }

func (c *client) readReply() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, fmt.Errorf("malformed reply line %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-':
		return reply{kind: kind, data: body}, nil
	case ':', '*', '$':
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return reply{}, fmt.Errorf("malformed reply length %q", line)
		}
		r := reply{kind: kind, n: n}
		if kind == '$' && n >= 0 {
			if int64(cap(c.bulk)) < n+2 {
				c.bulk = make([]byte, n+2)
			}
			b := c.bulk[:n+2]
			if _, err := io.ReadFull(c.br, b); err != nil {
				return reply{}, err
			}
			r.data = b[:n]
		}
		return r, nil
	}
	return reply{}, fmt.Errorf("unknown reply type %q", line)
}

// do sends one command and returns its reply (set-up and INFO traffic only;
// measured traffic goes through doBatch).
func (c *client) do(args ...string) (reply, error) {
	c.wbuf = appendCommand(c.wbuf[:0], args...)
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return reply{}, err
	}
	return c.readReply()
}

func appendCommand(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, "\r\n"...)
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, a...)
		dst = append(dst, "\r\n"...)
	}
	return dst
}

// appendOp encodes one generated op. Key and value lengths are fixed, so the
// framing is constant text.
func appendOp(dst []byte, o op) []byte {
	switch o.kind {
	case opGet:
		dst = append(dst, "*2\r\n$3\r\nGET\r\n$14\r\n"...)
		dst = appendKey(dst, o.id)
	case opSet:
		dst = append(dst, "*3\r\n$3\r\nSET\r\n$14\r\n"...)
		dst = appendKey(dst, o.id)
		dst = append(dst, "\r\n$100\r\n"...)
		dst = appendValue(dst, o.id, uint32(o.arg))
	case opSetTTL:
		dst = append(dst, "*4\r\n$6\r\nPSETEX\r\n$14\r\n"...)
		dst = appendKey(dst, o.id)
		dst = append(dst, "\r\n$4\r\n"...)
		dst = strconv.AppendInt(dst, int64(o.arg), 10) // 1000..2000: four digits
		dst = append(dst, "\r\n$100\r\n"...)
		dst = appendValue(dst, o.id, 0)
	case opPing:
		return append(dst, "*1\r\n$4\r\nPING\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// tally counts what a run attempted and what went wrong. A nil GET is a miss;
// whether a miss is also a failure is the workload's call (missFails).
type tally struct {
	ops, gets, hits, failed uint64
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.failed += o.failed
}

// doBatch writes ops as one pipelined request and checks each reply: GET must
// return a well-formed value of its key (or nil), writes must return +OK,
// PING +PONG. onGet, if non-nil, sees every GET outcome (the crash cycles use
// it to compare versions; the cache workload to queue refills).
func (c *client) doBatch(ops []op, t *tally, missFails bool, onGet func(o op, version uint32, found bool)) error {
	c.wbuf = c.wbuf[:0]
	for _, o := range ops {
		c.wbuf = appendOp(c.wbuf, o)
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	for _, o := range ops {
		if err := c.check(o, t, missFails, onGet); err != nil {
			return err
		}
	}
	return nil
}

// check reads the reply to o and verifies it.
func (c *client) check(o op, t *tally, missFails bool, onGet func(o op, version uint32, found bool)) error {
	r, err := c.readReply()
	if err != nil {
		return err
	}
	t.ops++
	switch o.kind {
	case opGet:
		t.gets++
		switch {
		case r.kind == '$' && r.n < 0:
			if missFails {
				t.failed++
			}
			if onGet != nil {
				onGet(o, 0, false)
			}
		case r.kind == '$':
			v, ok := checkValue(r.data, o.id)
			if !ok {
				t.failed++
				break
			}
			t.hits++
			if onGet != nil {
				onGet(o, v, true)
			}
		default:
			t.failed++
		}
	case opSet, opSetTTL:
		if r.kind != '+' || string(r.data) != "OK" {
			t.failed++
		}
	case opPing:
		if r.kind != '+' || string(r.data) != "PONG" {
			t.failed++
		}
	}
	return nil
}

// infoField extracts "name:value" from an INFO reply body.
func infoField(body []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSuffix(line, "\r"), name+":"); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("INFO field %q not found", name)
}

// info fetches one INFO section (all of them when section is empty) and
// returns the named fields.
func (c *client) info(section string, names ...string) ([]float64, error) {
	args := []string{"INFO"}
	if section != "" {
		args = append(args, section)
	}
	r, err := c.do(args...)
	if err != nil {
		return nil, err
	}
	if r.kind != '$' || r.n < 0 {
		return nil, fmt.Errorf("INFO %s: unexpected reply %c %q", section, r.kind, r.data)
	}
	out := make([]float64, len(names))
	for i, n := range names {
		if out[i], err = infoField(r.data, n); err != nil {
			return nil, fmt.Errorf("INFO %s: %w", section, err)
		}
	}
	return out, nil
}
