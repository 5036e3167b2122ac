package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/resp"
)

// The arguments dispatch is handed are views of the connection reader's
// storage, valid until its next read: whoever keeps one copies it. These
// tests hold every keeper to that, and the reader to what it may hold itself.

// scribble overwrites arguments dispatch has returned from, as the reader's
// next command will.
func scribble(args [][]byte) {
	for _, a := range args {
		for i := range a {
			a[i] = 0xA5
		}
	}
}

// TestKeptArgumentsAreCopies drives the production reader → dispatch → writer
// on a primary with a live replica, scribbling over every command's arguments
// once dispatch returns. Each keeper sits on the path: MULTI's queue, the
// slow log (threshold -1: every command), SETEX's clock-free rewrite, the
// journal's before-image (MSET, RPUSH and the EXEC run under it), the feed.
func TestKeptArgumentsAreCopies(t *testing.T) {
	primary := openReplNode(t, t.TempDir(), "", func(c *Config) { c.SlowlogSlowerThan = -1 })
	replica := openReplNode(t, t.TempDir(), primary.sock, nil)
	waitFor(t, 5*time.Second, "the replica's link", func() bool { return replica.srv.repl.link.isUp() })
	from := primary.srv.repl.feed.Offset()
	sent, _ := primary.srv.repl.feed.CursorAt(from)

	commands := [][]string{
		{"MULTI"},
		{"SET", "txn-string", "one"},
		{"MSET", "txn-a", "1", "txn-b", "2"},
		{"RPUSH", "txn-list", "x", "y", "z"},
		{"EXEC"},
		{"SETEX", "ttl-key", "1000", "ttl-value"},
		{"MSET", "plain-a", "3", "plain-b", "4"},
		{"SLOWLOG", "GET"},
	}
	var wire []byte
	for _, c := range commands {
		wire = resp.AppendCommand(wire, entryBytes(c...))
	}
	var out bytes.Buffer
	s := primary.srv
	hds := s.getHandles()
	defer s.putHandles(hds)
	r, w := newRespReader(bytes.NewReader(wire)), newRespWriter(&out)
	ctx := &Ctx{s: s, hds: hds, hd: hds[0], w: w, cs: &connState{}}
	for range commands {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		s.dispatch(ctx, args)
		scribble(args)
	}
	w.flush()

	br := bufio.NewReader(&out)
	var replies []Reply
	for range commands {
		rp, err := resp.ReadReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v\n%q", len(replies), err, out.Bytes())
		}
		replies = append(replies, rp)
	}
	for i, want := range []string{"OK", "QUEUED", "QUEUED", "QUEUED"} {
		if replies[i].Str != want {
			t.Fatalf("reply %d = %+v, want %s", i, replies[i], want)
		}
	}
	if exec := replies[4].Elems; len(exec) != 3 || exec[0].Str != "OK" || exec[1].Str != "OK" || exec[2].Int != 3 {
		t.Fatalf("EXEC = %+v", replies[4])
	}
	// The slow log, newest first: everything that ran, as it was sent.
	var logged []string
	for _, e := range replies[7].Elems {
		var words []string
		for _, a := range e.Elems[3].Elems {
			words = append(words, string(a.Bulk))
		}
		if words[0] != "PSYNC" { // the replica's, whenever its handshake finished
			logged = append(logged, strings.Join(words, " "))
		}
	}
	wantLog := []string{
		"MSET plain-a 3 plain-b 4", "SETEX ttl-key 1000 ttl-value", "EXEC",
		"RPUSH txn-list x y z", "MSET txn-a 1 txn-b 2", "SET txn-string one", "MULTI",
	}
	if len(logged) < len(wantLog) || strings.Join(logged[:len(wantLog)], "|") != strings.Join(wantLog, "|") {
		t.Fatalf("slow log:\n%q\nwant\n%q", logged, wantLog)
	}

	check := func(n *replNode, who string) {
		t.Helper()
		for k, want := range map[string]string{
			"txn-string": "one", "txn-a": "1", "txn-b": "2", "ttl-key": "ttl-value", "plain-a": "3", "plain-b": "4",
		} {
			if v, ok, err := n.st.GetBytes([]byte(k)); err != nil || !ok || string(v) != want {
				t.Fatalf("%s: %s = %q, %v, %v; want %q", who, k, v, ok, err, want)
			}
		}
		if vals, err := n.st.LRange([]byte("txn-list"), 0, -1); err != nil || fmt.Sprintf("%s", vals) != "[x y z]" {
			t.Fatalf("%s: txn-list = %s, %v", who, vals, err)
		}
	}
	check(primary, "primary")
	end := primary.srv.repl.feed.Offset()
	waitFor(t, 5*time.Second, "the replica to apply the feed", func() bool { return replica.srv.repl.feed.Offset() == end })
	check(replica, "replica")

	// The bytes the replica was sent, and the bytes it kept as its own feed.
	applied, ok := replica.srv.repl.feed.CursorAt(from)
	if !ok {
		t.Fatal("the replica's backlog does not cover what it applied")
	}
	var feeds [2][]byte
	for i, c := range []*repl.Cursor{sent, applied} {
		for uint64(len(feeds[i])) < end-from {
			p, err := c.NextEntries(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			feeds[i] = append(feeds[i], p...)
		}
	}
	at := strings.Split(string(feeds[0]), "PSETEXAT\r\n$7\r\nttl-key\r\n$13\r\n")
	if len(at) != 2 {
		t.Fatalf("no PSETEXAT rewrite of SETEX in the feed: %q", feeds[0])
	}
	wantFeed := resp.AppendCommand(nil, entryBytes("SET", "txn-string", "one"))
	wantFeed = resp.AppendCommand(wantFeed, entryBytes("MSET", "txn-a", "1", "txn-b", "2"))
	wantFeed = resp.AppendCommand(wantFeed, entryBytes("RPUSH", "txn-list", "x", "y", "z"))
	wantFeed = resp.AppendCommand(wantFeed, entryBytes("PSETEXAT", "ttl-key", at[1][:13], "ttl-value"))
	wantFeed = resp.AppendCommand(wantFeed, entryBytes("MSET", "plain-a", "3", "plain-b", "4"))
	if !bytes.Equal(feeds[0], wantFeed) || !bytes.Equal(feeds[1], wantFeed) {
		t.Fatalf("feed sent:\n%q\nfeed the replica kept:\n%q\nwant:\n%q", feeds[0], feeds[1], wantFeed)
	}
}

func entryBytes(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// liveHeap is the Go heap in use once garbage is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdleConnectionHoldsLittle: a connection that sends one large command
// and then idles holds, once the reply is out, no more than the reader's idle
// bound — the reader lets go before it blocks for the next command, not when
// that command arrives.
func TestIdleConnectionHoldsLittle(t *testing.T) {
	del := [][]byte{[]byte("DEL")}
	for i := 0; i < 100000; i++ {
		del = append(del, []byte(fmt.Sprint("no-such-key-", i)))
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"8 MiB SET", resp.AppendCommand(nil, [][]byte{[]byte("SET"), []byte("big"), make([]byte, 8<<20)})},
		{"100000-key DEL", resp.AppendCommand(nil, del)},
	} {
		ts := startServer(t, Config{}, 0)
		conn, err := net.Dial("unix", ts.sock)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		roundTrip := func(wire []byte) {
			t.Helper()
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			if rp, err := resp.ReadReply(br); err != nil || rp.Err() != nil {
				t.Fatalf("%s: %+v, %v", tc.name, rp, err)
			}
		}
		roundTrip([]byte("PING\r\n")) // the connection's buffers exist
		before := liveHeap()
		roundTrip(tc.wire)
		const bound = 64<<10 + 1024*24 // the reader's idle buffer and vector
		var held int64
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if held = int64(liveHeap()) - int64(before); held <= 2*bound || time.Now().After(deadline) {
				break
			}
		}
		if held > 2*bound {
			t.Errorf("%s: the idle connection holds %d bytes of a %d-byte command", tc.name, held, len(tc.wire))
		}
	}
}

// TestTxnQueueRetentionIsMetered: what a MULTI queue of many-argument
// commands really keeps alive is no more than queuedBytes says, which is what
// maxTxnQueueBytes bounds — each command owns one exact vector and one
// payload buffer, and nothing the reader grew stays behind them.
func TestTxnQueueRetentionIsMetered(t *testing.T) {
	var wire []byte
	args := [][]byte{[]byte("RPUSH"), []byte("list")}
	for i := 0; i < 1000; i++ {
		args = append(args, []byte("elem")[:i%5])
	}
	wire = resp.AppendCommand(wire, args)
	src := bytes.NewReader(nil)
	r := newRespReader(src)
	cs := &connState{inTxn: true}
	ctx := &Ctx{w: newRespWriter(io.Discard), cs: cs}
	bc := &boundCmd{cmd: commandTable["RPUSH"]}

	before := liveHeap()
	for cs.queuedBytes < 32<<20 {
		src.Reset(wire)
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		cs.enqueue(ctx, bc, args)
		scribble(args)
	}
	if cs.dirty {
		t.Fatal("queue poisoned")
	}
	held := int64(liveHeap()) - int64(before)
	if held > int64(cs.queuedBytes) {
		t.Fatalf("%d queued commands metered at %d bytes keep %d alive", len(cs.queue), cs.queuedBytes, held)
	}
	for _, q := range cs.queue {
		if len(q.args) != 1002 || string(q.args[0]) != "RPUSH" || string(q.args[1001]) != "elem" {
			t.Fatalf("queued command damaged: %d args, %q … %q", len(q.args), q.args[0], q.args[len(q.args)-1])
		}
	}
	cs.reset()
	if held := int64(liveHeap()) - int64(before); held > 1<<20 {
		t.Fatalf("a reset queue keeps %d bytes alive", held)
	}
	runtime.KeepAlive(r)
}

// TestServedCommandsDoNotAllocate pins the steady state of a connection on a
// server wired as ralloc-serve wires it — replication on, so every SET also
// feeds the backlog: a pipelined burst read by the connection's reader,
// dispatched and answered through its writer allocates nothing.
func TestServedCommandsDoNotAllocate(t *testing.T) {
	e := newBenchEnv(t, Config{ReplBacklogBytes: 1 << 20})
	if e.srv.repl == nil {
		t.Fatal("replication is off")
	}
	value := strings.Repeat("v", 100)
	for _, tc := range []struct {
		name string
		cmd  []string
	}{
		{"PING", []string{"PING"}},
		{"SET", []string{"SET", "key:000000012345", value}},
		{"GET", []string{"GET", "key:000000012345"}},
	} {
		var wire []byte
		for i := 0; i < 16; i++ {
			wire = resp.AppendCommand(wire, entryBytes(tc.cmd...))
		}
		src := bytes.NewReader(nil)
		r, w := newRespReader(src), newRespWriter(io.Discard)
		ctx := &Ctx{s: e.srv, hd: e.hd, w: w, cs: &connState{}}
		burst := func() {
			src.Reset(wire)
			for i := 0; i < 16; i++ {
				args, err := r.ReadCommand()
				if err != nil {
					t.Fatal(err)
				}
				e.srv.dispatch(ctx, args)
			}
			if w.errs != 0 || w.flush() != nil {
				t.Fatal("error reply")
			}
		}
		for i := 0; i < 2000; i++ { // the backlog reaches its size
			burst()
		}
		if n := testing.AllocsPerRun(200, burst); n != 0 {
			t.Errorf("a burst of 16 pipelined %s allocates %v times", tc.name, n)
		}
	}
}
