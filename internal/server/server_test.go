package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
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

// persistOnSave makes SAVE write back every line of h's region under the
// fence, so an in-process SAVE → Region.Crash() keeps exactly the state the
// fence saw — what SaveFileOnline + kill + LoadFile does across processes.
func persistOnSave(a alloc.Allocator, st *kvstore.Store, h *ralloc.Heap) []ShardBackend {
	return []ShardBackend{{Alloc: a, Store: st, CheckpointOnline: saveUnderFence(func() error {
		h.Region().Persist()
		return nil
	})}}
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

func TestSaveCheckpointAndReopenAfterKill(t *testing.T) {
	// File-backed server: SAVE is the boundary. A subsequent hard stop (no
	// Close) must restart dirty and recover to exactly the checkpointed
	// state — writes acked after it are gone.
	dir := t.TempDir()
	heapPath := filepath.Join(dir, "kv.heap")
	cfg := ralloc.Config{SBRegion: 32 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, dirty, err := ralloc.Open(heapPath, cfg)
	if err != nil || dirty {
		t.Fatalf("open: %v dirty=%v", err, dirty)
	}
	a := h.AsAllocator()
	st, root := kvstore.Open(a, a.NewHandle(), 1024)
	h.SetRoot(0, root)
	srv := NewSharded([]ShardBackend{RegionBackend(a, st, h.Region(), heapPath, false)}, Config{})
	sock := filepath.Join(dir, "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Set(fmt.Sprintf("ck-%04d", i), fmt.Sprintf("v-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rp, err := c.Do("SAVE"); err != nil || rp.Str != "OK" {
		t.Fatalf("SAVE = %+v, %v", rp, err)
	}
	// Post-checkpoint writes are lost by the kill — that is the model.
	if err := c.Set("after-save", "lost"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Abort() // no heap.Close(): the on-disk image keeps dirty=1

	h2, dirty, err := ralloc.Open(heapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("killed server's image reported clean")
	}
	a2 := h2.AsAllocator()
	h2.GetRoot(0, kvstore.Filter(a2, root))
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.Attach(a2, root)
	if st2.Len() != 500 {
		t.Fatalf("recovered %d records, want 500", st2.Len())
	}
	for i := 0; i < 500; i++ {
		v, ok, _ := st2.GetBytes([]byte(fmt.Sprintf("ck-%04d", i)))
		if !ok || string(v) != fmt.Sprintf("v-%04d", i) {
			t.Fatalf("ck-%04d = (%q,%v)", i, v, ok)
		}
	}
	if _, ok, _ := st2.GetBytes([]byte("after-save")); ok {
		t.Fatal("post-checkpoint write survived the kill (checkpoint not the boundary?)")
	}
}

// hasLatencyEvent reports whether a LATENCY LATEST reply names the event.
func hasLatencyEvent(rp Reply, event string) bool {
	for _, row := range rp.Elems {
		if len(row.Elems) > 0 && string(row.Elems[0].Bulk) == event {
			return true
		}
	}
	return false
}

func TestOnlineSaveUnderTrafficAndReopenAfterKill(t *testing.T) {
	// The online checkpoint's contract under real traffic: SAVE runs while
	// writers keep writing, and the published image is a consistent state
	// no older than the moment SAVE was issued. So every write acked
	// before SAVE must recover; writes racing the copy may or may not,
	// but nothing may be torn.
	dir := t.TempDir()
	heapPath := filepath.Join(dir, "kv.heap")
	cfg := ralloc.Config{SBRegion: 32 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, dirty, err := ralloc.Open(heapPath, cfg)
	if err != nil || dirty {
		t.Fatalf("open: %v dirty=%v", err, dirty)
	}
	a := h.AsAllocator()
	st, root := kvstore.Open(a, a.NewHandle(), 1024)
	h.SetRoot(0, root)
	srv := NewSharded([]ShardBackend{RegionBackend(a, st, h.Region(), heapPath, false)}, Config{})
	sock := filepath.Join(dir, "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	const writers = 4
	var acked [writers]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial("unix", sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Set(fmt.Sprintf("w%d-%06d", g, i), fmt.Sprintf("v%d-%06d", g, i)); err != nil {
					select {
					case <-stop: // server shut down under us: fine
					default:
						t.Errorf("writer %d: %v", g, err)
					}
					return
				}
				acked[g].Add(1)
			}
		}(g)
	}
	// Let the writers build up state so the copy phases race real stores.
	for {
		var total uint64
		for g := range acked {
			total += acked[g].Load()
		}
		if total >= 2000 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The floor: everything acked before SAVE is issued must survive.
	var floor [writers]uint64
	for g := range acked {
		floor[g] = acked[g].Load()
	}
	cs, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if rp, err := cs.Do("SAVE"); err != nil || rp.Str != "OK" {
		t.Fatalf("SAVE = %+v, %v", rp, err)
	}
	// The fence and copy telemetry must show an online run.
	rp, err := cs.Do("INFO", "persistence")
	if err != nil {
		t.Fatal(err)
	}
	info := string(rp.Bulk)
	for _, want := range []string{"checkpoints:1", "checkpoint_errors:0",
		"last_checkpoint_fence_us:", "checkpoint_lines_copied:", "checkpoint_lines_recopied:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO persistence missing %q:\n%s", want, info)
		}
	}
	if rp, err := cs.Do("LATENCY", "LATEST"); err != nil || !hasLatencyEvent(rp, "checkpoint-fence") {
		t.Fatalf("LATENCY LATEST lacks checkpoint-fence event: %+v, %v", rp, err)
	}
	cs.Close()

	close(stop)
	wg.Wait()
	srv.Abort() // kill: no clean Close, the image on disk is the checkpoint

	h2, dirty, err := ralloc.Open(heapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("killed server's image reported clean")
	}
	a2 := h2.AsAllocator()
	h2.GetRoot(0, kvstore.Filter(a2, root))
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.Attach(a2, root)
	for g := 0; g < writers; g++ {
		for i := uint64(0); i < floor[g]; i++ {
			k := fmt.Sprintf("w%d-%06d", g, i)
			v, ok, _ := st2.GetBytes([]byte(k))
			if !ok {
				t.Fatalf("pre-SAVE acked key %s missing after recovery", k)
			}
			if want := fmt.Sprintf("v%d-%06d", g, i); string(v) != want {
				t.Fatalf("%s = %q, want %q (torn image?)", k, v, want)
			}
		}
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

func TestTornCheckpointRejectedPreviousImageRecovers(t *testing.T) {
	// End to end: a checkpoint file torn on disk (bit rot, partial copy)
	// must refuse to load as ErrBadImage — and the previous intact image
	// must still bring the server back.
	dir := t.TempDir()
	heapPath := filepath.Join(dir, "kv.heap")
	cfg := ralloc.Config{SBRegion: 32 << 20, Pmem: pmem.Config{Mode: pmem.ModeCrashSim}}
	h, _, err := ralloc.Open(heapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	st, root := kvstore.Open(a, a.NewHandle(), 1024)
	h.SetRoot(0, root)
	srv := NewSharded([]ShardBackend{RegionBackend(a, st, h.Region(), heapPath, false)}, Config{})
	sock := filepath.Join(dir, "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k-%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if rp, err := c.Do("SAVE"); err != nil || rp.Str != "OK" {
		t.Fatalf("SAVE = %+v, %v", rp, err)
	}
	c.Close()
	srv.Abort()

	good, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the published file the way a crashed copy would.
	if err := os.WriteFile(heapPath, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ralloc.Open(heapPath, cfg); !errors.Is(err, pmem.ErrBadImage) {
		t.Fatalf("torn image: err = %v, want ErrBadImage", err)
	}
	// Restore the intact previous image (the operator's backup / the
	// not-yet-renamed old file): the server comes back with its data.
	if err := os.WriteFile(heapPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	h2, dirty, err := ralloc.Open(heapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("expected dirty image after kill")
	}
	a2 := h2.AsAllocator()
	h2.GetRoot(0, kvstore.Filter(a2, root))
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.Attach(a2, root)
	if st2.Len() != 100 {
		t.Fatalf("recovered %d records, want 100", st2.Len())
	}
}
