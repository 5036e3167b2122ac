package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/resp"
)

// Client is a minimal RESP2 client with explicit pipelining: Send queues
// commands into the write buffer, Flush pushes them to the server, Recv
// reads one reply. Do is the one-shot convenience. Not safe for concurrent
// use; give each goroutine its own Client.
type Client struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending int
}

// Dial connects to a server ("tcp", "host:port" or "unix", "/path.sock").
func Dial(network, addr string) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(network, addr string, d time.Duration) (*Client, error) {
	c, err := net.DialTimeout(network, addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:  c,
		br: resp.NewReader(c),
		bw: bufio.NewWriterSize(c, 16<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// Send queues one command (as a RESP array of bulk strings) in the write
// buffer without transmitting it.
func (c *Client) Send(args ...string) error {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.SendBytes(bs...)
}

// SendBytes is Send for preformatted byte arguments.
func (c *Client) SendBytes(args ...[]byte) error {
	if _, err := c.bw.Write(resp.AppendCommand(c.bw.AvailableBuffer(), args)); err != nil {
		return err
	}
	c.pending++
	return nil
}

// Flush transmits all queued commands.
func (c *Client) Flush() error { return c.bw.Flush() }

// Pending reports how many replies have not been received yet.
func (c *Client) Pending() int { return c.pending }

// Recv reads the next reply. The caller is responsible for matching Recv
// calls one-to-one (in order) with sent commands.
func (c *Client) Recv() (Reply, error) {
	rp, err := resp.ReadReply(c.br)
	if err != nil {
		return rp, err
	}
	c.pending--
	return rp, nil
}

// Do sends one command and waits for its reply. It must not be interleaved
// with an unflushed or unread pipeline.
func (c *Client) Do(args ...string) (Reply, error) {
	if c.pending != 0 {
		return Reply{}, fmt.Errorf("server: Do with %d pipelined replies outstanding", c.pending)
	}
	if err := c.Send(args...); err != nil {
		return Reply{}, err
	}
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	return c.Recv()
}

// reply runs one command and returns its reply; a transport failure and an
// error reply both come back as the error.
func (c *Client) reply(args ...string) (Reply, error) {
	rp, err := c.Do(args...)
	if err == nil {
		err = rp.Err()
	}
	return rp, err
}

// expect is reply for a command whose reply must be of the given kind.
func (c *Client) expect(kind byte, args ...string) (Reply, error) {
	rp, err := c.reply(args...)
	if err == nil && rp.Kind != kind {
		err = fmt.Errorf("server: unexpected %s reply %q", args[0], rp.Text())
	}
	return rp, err
}

// okReply runs one command expecting a +OK reply.
func (c *Client) okReply(args ...string) error {
	rp, err := c.expect('+', args...)
	if err == nil && rp.Str != "OK" {
		err = fmt.Errorf("server: unexpected %s reply %q", args[0], rp.Text())
	}
	return err
}

// intReply runs one command expecting an integer reply.
func (c *Client) intReply(args ...string) (int64, error) {
	rp, err := c.expect(':', args...)
	return rp.Int, err
}

// bulkReply runs one command expecting a bulk-or-nil reply; ok=false reports
// the nil.
func (c *Client) bulkReply(args ...string) (value string, ok bool, err error) {
	rp, err := c.expect('$', args...)
	return string(rp.Bulk), err == nil && !rp.Nil, err
}

// arrayReply runs one command expecting an array reply.
func (c *Client) arrayReply(args ...string) ([]Reply, error) {
	rp, err := c.expect('*', args...)
	return rp.Elems, err
}

// Set stores key=value, failing on any non-OK reply.
func (c *Client) Set(key, value string) error { return c.okReply("SET", key, value) }

// Get fetches key; ok=false reports a missing key.
func (c *Client) Get(key string) (value string, ok bool, err error) { return c.bulkReply("GET", key) }

// SetEx stores key=value with a time-to-live in whole seconds (SETEX).
func (c *Client) SetEx(key string, seconds int64, value string) error {
	return c.okReply("SETEX", key, strconv.FormatInt(seconds, 10), value)
}

// PSetEx is SetEx with millisecond resolution (PSETEX).
func (c *Client) PSetEx(key string, ms int64, value string) error {
	return c.okReply("PSETEX", key, strconv.FormatInt(ms, 10), value)
}

// Expire sets key's time-to-live in seconds; ok=false reports a missing key.
func (c *Client) Expire(key string, seconds int64) (bool, error) {
	n, err := c.intReply("EXPIRE", key, strconv.FormatInt(seconds, 10))
	return n == 1, err
}

// PExpire is Expire with millisecond resolution.
func (c *Client) PExpire(key string, ms int64) (bool, error) {
	n, err := c.intReply("PEXPIRE", key, strconv.FormatInt(ms, 10))
	return n == 1, err
}

// TTL returns key's remaining lifetime in seconds, -1 for no expiry, -2 for
// a missing (or expired) key.
func (c *Client) TTL(key string) (int64, error) { return c.intReply("TTL", key) }

// PTTL is TTL in milliseconds.
func (c *Client) PTTL(key string) (int64, error) { return c.intReply("PTTL", key) }

// Persist removes key's expiry; ok=false when the key is missing or had
// none.
func (c *Client) Persist(key string) (bool, error) {
	n, err := c.intReply("PERSIST", key)
	return n == 1, err
}

// SetNX stores key=value only if key does not exist; ok reports whether the
// write happened.
func (c *Client) SetNX(key, value string) (bool, error) {
	n, err := c.intReply("SETNX", key, value)
	return n == 1, err
}

// Append appends value to key (creating it if missing), returning the new
// length.
func (c *Client) Append(key, value string) (int64, error) {
	return c.intReply("APPEND", key, value)
}

// GetSet atomically replaces key's value, returning the previous one
// (ok=false when the key was absent).
func (c *Client) GetSet(key, value string) (string, bool, error) {
	return c.bulkReply("GETSET", key, value)
}

// Echo round-trips a message (ECHO).
func (c *Client) Echo(msg string) (string, error) {
	v, _, err := c.bulkReply("ECHO", msg)
	return v, err
}

// Type reports a key's type: "string" for a live key, "none" for a missing
// (or expired) one.
func (c *Client) Type(key string) (string, error) {
	rp, err := c.reply("TYPE", key)
	return rp.Str, err
}

// GetDel fetches and deletes key in one atomic step; ok=false reports a
// missing key.
func (c *Client) GetDel(key string) (value string, ok bool, err error) {
	return c.bulkReply("GETDEL", key)
}

// HSet stores field/value pairs in the hash at key, returning how many
// fields were newly created (HSET).
func (c *Client) HSet(key string, fieldvals ...string) (int64, error) {
	return c.intReply(append([]string{"HSET", key}, fieldvals...)...)
}

// HGet fetches one field of the hash at key; ok=false reports a missing key
// or field.
func (c *Client) HGet(key, field string) (value string, ok bool, err error) {
	return c.bulkReply("HGET", key, field)
}

// HDel removes fields from the hash at key, returning how many existed.
func (c *Client) HDel(key string, fields ...string) (int64, error) {
	return c.intReply(append([]string{"HDEL", key}, fields...)...)
}

// HExists reports whether the hash at key has the field.
func (c *Client) HExists(key, field string) (bool, error) {
	n, err := c.intReply("HEXISTS", key, field)
	return n == 1, err
}

// HLen returns the number of fields in the hash at key.
func (c *Client) HLen(key string) (int64, error) { return c.intReply("HLEN", key) }

// HGetAll returns the hash at key as a map (empty for a missing key).
func (c *Client) HGetAll(key string) (map[string]string, error) {
	elems, err := c.arrayReply("HGETALL", key)
	if err == nil && len(elems)%2 != 0 {
		err = fmt.Errorf("server: unexpected HGETALL reply of %d elements", len(elems))
	}
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(elems)/2)
	for i := 0; i+1 < len(elems); i += 2 {
		m[string(elems[i].Bulk)] = string(elems[i+1].Bulk)
	}
	return m, nil
}

// LPush prepends values to the list at key, returning the new length.
func (c *Client) LPush(key string, values ...string) (int64, error) {
	return c.intReply(append([]string{"LPUSH", key}, values...)...)
}

// RPush appends values to the list at key, returning the new length.
func (c *Client) RPush(key string, values ...string) (int64, error) {
	return c.intReply(append([]string{"RPUSH", key}, values...)...)
}

// LPop removes and returns the head of the list at key; ok=false reports a
// missing key.
func (c *Client) LPop(key string) (string, bool, error) { return c.bulkReply("LPOP", key) }

// RPop removes and returns the tail of the list at key.
func (c *Client) RPop(key string) (string, bool, error) { return c.bulkReply("RPOP", key) }

// LLen returns the length of the list at key.
func (c *Client) LLen(key string) (int64, error) { return c.intReply("LLEN", key) }

// LRange returns the elements of the list at key between start and stop
// inclusive (Redis index semantics: negative counts from the tail).
func (c *Client) LRange(key string, start, stop int64) ([]string, error) {
	elems, err := c.arrayReply("LRANGE", key, strconv.FormatInt(start, 10), strconv.FormatInt(stop, 10))
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = string(e.Bulk)
	}
	return out, err
}

// CommandCount reports how many commands the server's registry serves
// (COMMAND COUNT).
func (c *Client) CommandCount() (int64, error) {
	return c.intReply("COMMAND", "COUNT")
}

// Multi opens a transaction: subsequent commands are queued server-side
// (each replying +QUEUED) until Exec or Discard.
func (c *Client) Multi() error { return c.okReply("MULTI") }

// Discard abandons the open transaction.
func (c *Client) Discard() error { return c.okReply("DISCARD") }

// Exec runs the queued transaction, returning the individual replies in
// queue order. A queue-time validation failure surfaces as the EXECABORT
// error.
func (c *Client) Exec() ([]Reply, error) { return c.arrayReply("EXEC") }

// Txn pipelines MULTI, the given commands, and EXEC in one round trip and
// returns the EXEC replies. Any queue-time rejection (unknown command, bad
// arity, denied command) aborts the transaction and is returned as an error.
func (c *Client) Txn(cmds ...[]string) ([]Reply, error) {
	if c.pending != 0 {
		return nil, fmt.Errorf("server: Txn with %d pipelined replies outstanding", c.pending)
	}
	if err := c.Send("MULTI"); err != nil {
		return nil, err
	}
	for _, cmd := range cmds {
		if err := c.Send(cmd...); err != nil {
			return nil, err
		}
	}
	if err := c.Send("EXEC"); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	var queueErr error
	for i := 0; i < len(cmds)+1; i++ { // +OK, then one +QUEUED (or error) each
		rp, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if err := rp.Err(); err != nil && queueErr == nil {
			queueErr = err
		}
	}
	rp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if err := rp.Err(); err != nil {
		if queueErr != nil {
			return nil, fmt.Errorf("%v (queue error: %v)", err, queueErr)
		}
		return nil, err
	}
	if queueErr != nil {
		return nil, queueErr
	}
	if rp.Kind != '*' {
		return nil, fmt.Errorf("server: unexpected EXEC reply %q", rp.Text())
	}
	return rp.Elems, nil
}

// DBSize returns the record count.
func (c *Client) DBSize() (int64, error) { return c.intReply("DBSIZE") }

// Wait blocks until numReplicas connected replicas have acknowledged every
// write this server had executed when WAIT began, or the timeout passes
// (0 waits indefinitely). It returns how many replicas acknowledged.
func (c *Client) Wait(numReplicas int, timeout time.Duration) (int64, error) {
	return c.intReply("WAIT", strconv.Itoa(numReplicas), strconv.FormatInt(timeout.Milliseconds(), 10))
}

// Promote turns a replica into a writable primary (REPLICAOF NO ONE).
func (c *Client) Promote() error { return c.okReply("REPLICAOF", "NO", "ONE") }
