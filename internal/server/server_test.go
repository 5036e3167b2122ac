package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// testServer bundles an in-process server on a unix socket.
type testServer struct {
	heap *ralloc.Heap
	st   *kvstore.Store
	srv  *Server
	sock string
	root uint64
}

func startServer(t *testing.T, cfg Config, bound uint64) *testServer {
	return startServerSave(t, cfg, bound, nil)
}

// saveUnderFence is the fake checkpoint for tests that never reload a file:
// SAVE takes the shard's real cut-over fence and runs cut inside it.
func saveUnderFence(cut func() error) func(func(func() error) error) (CheckpointStats, error) {
	return func(fence func(cut func() error) error) (CheckpointStats, error) {
		return CheckpointStats{}, fence(cut)
	}
}

// startServerSave is startServer with SAVE enabled: cut (when non-nil) runs
// under the cut-over fence.
func startServerSave(t *testing.T, cfg Config, bound uint64, cut func() error) *testServer {
	t.Helper()
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	var st *kvstore.Store
	var root uint64
	if bound > 0 {
		st, root = kvstore.OpenBounded(a, a.NewHandle(), 1024, bound)
	} else {
		st, root = kvstore.Open(a, a.NewHandle(), 1024)
	}
	h.SetRoot(0, root)
	be := ShardBackend{Alloc: a, Store: st}
	if cut != nil {
		be.CheckpointOnline = saveUnderFence(cut)
	}
	srv := NewSharded([]ShardBackend{be}, cfg)
	sock := filepath.Join(t.TempDir(), "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return &testServer{heap: h, st: st, srv: srv, sock: sock, root: root}
}

func dial(t *testing.T, ts *testServer) *Client {
	t.Helper()
	c, err := Dial("unix", ts.sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Fatalf("PING = %+v, %v", rp, err)
	}
	if rp, err := c.Do("PING", "hello"); err != nil || string(rp.Bulk) != "hello" {
		t.Fatalf("PING hello = %+v, %v", rp, err)
	}
	if err := c.Set("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k1"); err != nil || !ok || v != "v1" {
		t.Fatalf("GET k1 = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("GET missing = (%v,%v)", ok, err)
	}
	if rp, err := c.Do("EXISTS", "k1", "missing", "k1"); err != nil || rp.Int != 2 {
		t.Fatalf("EXISTS = %+v, %v", rp, err)
	}
	if rp, err := c.Do("DEL", "k1", "missing"); err != nil || rp.Int != 1 {
		t.Fatalf("DEL = %+v, %v", rp, err)
	}
	if _, ok, _ := c.Get("k1"); ok {
		t.Fatal("k1 survived DEL")
	}

	if rp, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil || rp.Str != "OK" {
		t.Fatalf("MSET = %+v, %v", rp, err)
	}
	rp, err := c.Do("MGET", "a", "missing", "c")
	if err != nil || len(rp.Elems) != 3 {
		t.Fatalf("MGET = %+v, %v", rp, err)
	}
	if string(rp.Elems[0].Bulk) != "1" || !rp.Elems[1].Nil || string(rp.Elems[2].Bulk) != "3" {
		t.Fatalf("MGET elems = %+v", rp.Elems)
	}

	if rp, err := c.Do("INCR", "counter"); err != nil || rp.Int != 1 {
		t.Fatalf("INCR = %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCR", "counter"); err != nil || rp.Int != 2 {
		t.Fatalf("INCR = %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCR", "fresh"); err != nil || rp.Int != 1 {
		t.Fatalf("INCR fresh key = %+v, %v", rp, err) // absent counts from 0
	}
	c.Set("text", "not-a-number")
	if rp, err := c.Do("INCR", "text"); err != nil || rp.Kind != '-' ||
		!strings.Contains(rp.Str, "not an integer") {
		t.Fatalf("INCR text = %+v, %v", rp, err)
	}

	if n, err := c.DBSize(); err != nil || n != 6 { // a b c counter fresh text
		t.Fatalf("DBSIZE = %d, %v", n, err)
	}
	rp, err = c.Do("INFO")
	if err != nil || rp.Kind != '$' {
		t.Fatalf("INFO = %+v, %v", rp, err)
	}
	for _, want := range []string{"allocator:ralloc", "records:6", "total_commands_processed:"} {
		if !strings.Contains(string(rp.Bulk), want) {
			t.Fatalf("INFO missing %q:\n%s", want, rp.Bulk)
		}
	}

	if rp, err := c.Do("FLUSHALL"); err != nil || rp.Str != "OK" {
		t.Fatalf("FLUSHALL = %+v, %v", rp, err)
	}
	if n, _ := c.DBSize(); n != 0 {
		t.Fatalf("DBSIZE after FLUSHALL = %d", n)
	}

	if rp, err := c.Do("NOSUCH", "x"); err != nil || rp.Kind != '-' ||
		!strings.Contains(rp.Str, "unknown command") {
		t.Fatalf("unknown command = %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET"); err != nil || rp.Kind != '-' {
		t.Fatalf("GET arity = %+v, %v", rp, err)
	}
	if rp, err := c.Do("SAVE"); err != nil || rp.Kind != '-' {
		t.Fatalf("SAVE on volatile heap = %+v, %v", rp, err)
	}
}

func TestInlineCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	conn, err := net.Dial("unix", ts.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("SET telnet works\r\nGET telnet\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	deadline := time.Now().Add(2 * time.Second)
	conn.SetReadDeadline(deadline)
	var got string
	for !strings.Contains(got, "works") {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	if !strings.HasPrefix(got, "+OK\r\n$5\r\nworks\r\n") {
		t.Fatalf("inline replies = %q", got)
	}
}

// TestEmptyCommandEndsTheBatch: an empty command (*0, *-1, a blank inline
// line) last in a write runs nothing and is not answered, and the replies
// before it go out with no further input from the client.
func TestEmptyCommandEndsTheBatch(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	for _, wire := range []string{"PING\r\n*0\r\n", "PING\r\n*-1\r\n", "PING\r\n\r\n", "PING\r\n  \r\n"} {
		conn, err := net.Dial("unix", ts.sock)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(wire)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 64)
		n, err := io.ReadAtLeast(conn, buf, len("+PONG\r\n"))
		if err != nil || string(buf[:n]) != "+PONG\r\n" {
			t.Fatalf("%q answered %q, %v; want +PONG alone within 1s", wire, buf[:n], err)
		}
		conn.Close()
	}
}

func TestPipelining(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := c.Send("SET", fmt.Sprintf("p-%04d", i), fmt.Sprintf("v-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := c.Send("GET", fmt.Sprintf("p-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rp, err := c.Recv()
		if err != nil || rp.Str != "OK" {
			t.Fatalf("SET %d reply = %+v, %v", i, rp, err)
		}
	}
	for i := 0; i < n; i++ {
		rp, err := c.Recv()
		if err != nil || string(rp.Bulk) != fmt.Sprintf("v-%04d", i) {
			t.Fatalf("GET %d reply = %+v, %v", i, rp, err)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d", c.Pending())
	}
}

func TestConcurrentClientsAndINCRAtomicity(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	const clients, incrs = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial("unix", ts.sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < incrs; i++ {
				if rp, err := c.Do("INCR", "shared"); err != nil || rp.Kind == '-' {
					t.Errorf("INCR: %+v, %v", rp, err)
					return
				}
				if err := c.Set(fmt.Sprintf("g%d-%d", g, i), "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c := dial(t, ts)
	v, ok, err := c.Get("shared")
	if err != nil || !ok {
		t.Fatalf("shared missing: %v", err)
	}
	if v != fmt.Sprint(clients*incrs) {
		t.Fatalf("INCR lost updates: %s, want %d", v, clients*incrs)
	}
	if _, err := ts.heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionOverNetwork(t *testing.T) {
	// A bounded store behind the server evicts under SET load; the client
	// keeps getting +OK and DBSIZE stays under the cap.
	ts := startServer(t, Config{}, 40<<10)
	c := dial(t, ts)
	for i := 0; i < 2000; i++ {
		if err := c.Set(fmt.Sprintf("e-%05d", i), strings.Repeat("x", 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := ts.st.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under 5x budget")
	}
	if _, ok, _ := c.Get("e-01999"); !ok {
		t.Fatal("newest key evicted")
	}
}

func TestMaxConnsBlocksExcessConnections(t *testing.T) {
	ts := startServer(t, Config{MaxConns: 1}, 0)
	c1 := dial(t, ts)
	if _, err := c1.Do("PING"); err != nil {
		t.Fatal(err)
	}
	// Second connection is accepted but not served while c1 holds the slot.
	c2, err := Dial("unix", ts.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Send("PING")
	c2.Flush()
	c2.c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := c2.Recv(); err == nil {
		t.Fatal("second connection served despite MaxConns=1")
	}
	c1.Close()
	c2.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rp, err := c2.Recv(); err != nil || rp.Str != "PONG" {
		t.Fatalf("second connection not served after slot freed: %+v, %v", rp, err)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	// Round-trip once so the connection is accepted and served: a conn
	// still in the listener backlog at Shutdown is reset, like net/http.
	if _, err := c.Do("PING"); err != nil {
		t.Fatal(err)
	}
	// Queue a pipeline, then shut down while replies are in flight.
	const n = 500
	for i := 0; i < n; i++ {
		c.Send("SET", fmt.Sprintf("d-%04d", i), "v")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- ts.srv.Shutdown(2 * time.Second) }()
	got := 0
	for i := 0; i < n; i++ {
		rp, err := c.Recv()
		if err != nil {
			break
		}
		if rp.Str != "OK" {
			t.Fatalf("reply %d = %+v", i, rp)
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d/%d pipelined commands", got, n)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections are refused after shutdown.
	if c2, err := Dial("unix", ts.sock); err == nil {
		c2.Send("PING")
		c2.Flush()
		c2.c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := c2.Recv(); err == nil {
			t.Fatal("served after Shutdown")
		}
		c2.Close()
	}
}

// TestShutdownClosesIdleClients: a graceful stop does not wait out its drain
// timeout for clients idle between commands, over a unix socket or TCP; a
// command a client sent just before the stop is still answered.
func TestShutdownClosesIdleClients(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.srv.Serve(l)
	idle := []*Client{dial(t, ts), dial(t, ts)}
	tc, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	idle = append(idle, tc)
	// Round-trip once so each connection is accepted and served.
	for _, c := range idle {
		if _, err := c.Do("PING"); err != nil {
			t.Fatal(err)
		}
	}
	late := idle[0]
	late.Send("SET", "late", "v")
	if err := late.Flush(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ts.srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d >= 500*time.Millisecond {
		t.Fatalf("Shutdown with idle clients took %v", d)
	}
	if rp, err := late.Recv(); err != nil || rp.Str != "OK" {
		t.Fatalf("SET sent before the stop = %+v, %v", rp, err)
	}
	for i, c := range idle {
		c.c.SetReadDeadline(time.Now().Add(time.Second))
		if rp, err := c.Recv(); err == nil {
			t.Fatalf("client %d read %+v after Shutdown, want the connection closed", i, rp)
		}
	}
}

func TestShutdownCommandNotifiesOwner(t *testing.T) {
	ch := make(chan struct{}, 1)
	ts := startServer(t, Config{OnShutdown: func() { ch <- struct{}{} }}, 0)
	c := dial(t, ts)
	rp, err := c.Do("SHUTDOWN")
	if err != nil || rp.Str != "OK" {
		t.Fatalf("SHUTDOWN = %+v, %v", rp, err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("OnShutdown not invoked")
	}
}

func TestSaveFailureDoesNotStampSuccess(t *testing.T) {
	// A failed checkpoint must not advance the success telemetry: an
	// operator alerting on "time since last checkpoint" would otherwise
	// read a broken disk as a fresh save.
	ts := startServerSave(t, Config{}, 0, func() error { return errors.New("disk on fire") })
	c := dial(t, ts)
	if rp, err := c.Do("SAVE"); err != nil || rp.Kind != '-' {
		t.Fatalf("SAVE = %+v, %v (want error reply)", rp, err)
	}
	rp, err := c.Do("INFO", "persistence")
	if err != nil {
		t.Fatal(err)
	}
	info := string(rp.Bulk)
	for _, want := range []string{"checkpoints:0", "checkpoint_errors:1", "last_checkpoint_unix:0"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO persistence after failed SAVE missing %q:\n%s", want, info)
		}
	}
}
