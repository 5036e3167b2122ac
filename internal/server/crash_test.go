package server

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// TestCrashRestartUnderLiveTraffic is the end-to-end recoverability claim
// for the serving layer: kill the server mid-traffic (Abort = in-process
// kill -9, then a simulated full-system crash that drops every unflushed
// cache line), reopen the heap dirty, Recover, re-attach the store bounded,
// and serve again — with NO acknowledged SET lost. Each writer records the
// highest index whose +OK it actually received; after recovery every one of
// those keys must be present with the acknowledged value.
func TestCrashRestartUnderLiveTraffic(t *testing.T) {
	const (
		writers = 4
		bound   = 48 << 20 // roomy: the point here is durability, not eviction
	)
	cfg := ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	}
	h, _, err := ralloc.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	st, root := kvstore.OpenBounded(a, a.NewHandle(), 4096, bound)
	h.SetRoot(0, root)
	srv := New(a, st, Config{})
	sock := filepath.Join(t.TempDir(), "crash.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	// Live traffic: each writer SETs its own key sequence and records the
	// last acknowledged index. Unacknowledged writes may or may not
	// survive — acknowledged ones must.
	acked := make([]int, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acked[g] = -1
			c, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("writer %d: %v", g, err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				if err := c.Set(keyFor(g, i), valFor(g, i)); err != nil {
					return // connection torn down by the crash
				}
				acked[g] = i
			}
		}(g)
	}

	// Let traffic build, then kill the server abruptly and crash the
	// "machine": every cache line not explicitly flushed is lost.
	time.Sleep(300 * time.Millisecond)
	srv.Abort()
	wg.Wait()
	for g, n := range acked {
		if n < 10 {
			t.Fatalf("writer %d acked only %d sets before the crash; traffic too thin to mean anything", g, n)
		}
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}

	// Restart: attach reports dirty, recovery rebuilds allocator metadata,
	// AttachBounded recounts the byte accounting by walking the map.
	h2, dirty, err := ralloc.Attach(h.Region(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed heap attached clean")
	}
	a2 := h2.AsAllocator()
	root2 := h2.GetRoot(0, kvstore.Filter(a2, root))
	if root2 != root {
		t.Fatalf("root moved across crash: %#x -> %#x", root, root2)
	}
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.AttachBounded(a2, root, bound)
	if !st2.Bounded() {
		t.Fatal("restarted store lost its bound")
	}

	srv2 := New(a2, st2, Config{})
	sock2 := filepath.Join(t.TempDir(), "crash2.sock")
	l2, err := net.Listen("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer srv2.Shutdown(time.Second)

	// Every acknowledged SET must be served back intact.
	c, err := Dial("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := 0
	for g := 0; g < writers; g++ {
		for i := 0; i <= acked[g]; i++ {
			v, ok, err := c.Get(keyFor(g, i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != valFor(g, i) {
				t.Fatalf("acknowledged SET lost: %s = (%q,%v), want %q",
					keyFor(g, i), v, ok, valFor(g, i))
			}
			total++
		}
	}
	t.Logf("verified %d acknowledged SETs across the crash", total)

	// And the restarted server keeps serving writes.
	if n, err := c.DBSize(); err != nil || n < int64(total) {
		t.Fatalf("DBSIZE = %d, %v (want >= %d)", n, err, total)
	}
	if err := c.Set("post-restart", "alive"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("post-restart"); !ok || v != "alive" {
		t.Fatal("restarted server not serving writes")
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func keyFor(g, i int) string { return fmt.Sprintf("c%d-%06d", g, i) }
func valFor(g, i int) string { return fmt.Sprintf("v%d-%06d", g, i) }

// TestObjectCrashRestartUnderLiveTraffic is the typed-object variant of the
// recoverability claim, with SAVE checkpoints in the mix: writers HSET
// fields and RPUSH list elements, a checkpointer issues SAVEs, the server
// is killed mid-traffic and the machine "crashes" (unflushed lines lost).
// After restart every acknowledged HSET field must read back intact and
// every acknowledged RPUSH element must appear exactly once, in order, in
// its list — no half-linked node can surface as a torn value, a broken
// walk, or a disagreeing LLEN.
func TestObjectCrashRestartUnderLiveTraffic(t *testing.T) {
	const writers = 4
	cfg := ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	}
	h, _, err := ralloc.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	st, root := kvstore.Open(a, a.NewHandle(), 4096)
	h.SetRoot(0, root)
	srv := NewSharded(persistOnSave(a, st, h), Config{})
	sock := filepath.Join(t.TempDir(), "objcrash.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	ackedFields := make([]int, writers) // per-writer highest acked HSET field
	ackedElems := make([]int, writers)  // per-writer highest acked RPUSH element
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ackedFields[g], ackedElems[g] = -1, -1
			c, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("writer %d: %v", g, err)
				return
			}
			defer c.Close()
			hk, lk := fmt.Sprintf("oh-%d", g), fmt.Sprintf("ol-%d", g)
			for i := 0; ; i++ {
				if _, err := c.HSet(hk, fmt.Sprintf("f%06d", i), fmt.Sprintf("hv%d-%06d", g, i)); err != nil {
					return
				}
				ackedFields[g] = i
				if _, err := c.RPush(lk, fmt.Sprintf("lv%d-%06d", g, i)); err != nil {
					return
				}
				ackedElems[g] = i
			}
		}(g)
	}
	// A checkpointer quiesces and SAVEs concurrently with the object
	// traffic (the execMu barrier must make each image transactionally
	// consistent with the acked stream).
	stopSave := make(chan struct{})
	var saveWG sync.WaitGroup
	saveWG.Add(1)
	go func() {
		defer saveWG.Done()
		c, err := Dial("unix", sock)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			select {
			case <-stopSave:
				return
			default:
			}
			c.Do("SAVE")
			time.Sleep(30 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stopSave)
	saveWG.Wait()
	srv.Abort()
	wg.Wait()
	for g := range ackedFields {
		if ackedFields[g] < 10 {
			t.Fatalf("writer %d acked only %d HSETs; traffic too thin", g, ackedFields[g])
		}
	}
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}

	h2, dirty, err := ralloc.Attach(h.Region(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Fatal("crashed heap attached clean")
	}
	a2 := h2.AsAllocator()
	h2.GetRoot(0, kvstore.Filter(a2, root))
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.Attach(a2, root)

	srv2 := New(a2, st2, Config{})
	sock2 := filepath.Join(t.TempDir(), "objcrash2.sock")
	l2, err := net.Listen("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer srv2.Shutdown(time.Second)

	c, err := Dial("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	totalFields, totalElems := 0, 0
	for g := 0; g < writers; g++ {
		hk, lk := fmt.Sprintf("oh-%d", g), fmt.Sprintf("ol-%d", g)
		fields, err := c.HGetAll(hk)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= ackedFields[g]; i++ {
			want := fmt.Sprintf("hv%d-%06d", g, i)
			if got := fields[fmt.Sprintf("f%06d", i)]; got != want {
				t.Fatalf("acknowledged HSET lost: %s.f%06d = %q, want %q", hk, i, got, want)
			}
			totalFields++
		}
		// At most one in-flight field beyond the acked high-water mark.
		if len(fields) > ackedFields[g]+2 {
			t.Fatalf("%s has %d fields, acked %d: phantom fields", hk, len(fields), ackedFields[g]+1)
		}
		elems, err := c.LRange(lk, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.LLen(lk)
		if err != nil || int(n) != len(elems) {
			t.Fatalf("%s LLEN %d disagrees with walk %d (%v)", lk, n, len(elems), err)
		}
		if len(elems) < ackedElems[g]+1 || len(elems) > ackedElems[g]+2 {
			t.Fatalf("%s recovered %d elems, acked %d", lk, len(elems), ackedElems[g]+1)
		}
		for i, e := range elems {
			want := fmt.Sprintf("lv%d-%06d", g, i)
			if e != want {
				t.Fatalf("%s[%d] = %q, want %q (order broken across crash)", lk, i, e, want)
			}
			if i <= ackedElems[g] {
				totalElems++
			}
		}
	}
	t.Logf("verified %d acked fields and %d acked elements across the crash", totalFields, totalElems)

	// The recovered objects stay fully usable from both ends.
	for g := 0; g < writers; g++ {
		lk := fmt.Sprintf("ol-%d", g)
		if _, ok, err := c.RPop(lk); err != nil || !ok {
			t.Fatalf("post-restart RPOP(%s) = (%v,%v)", lk, ok, err)
		}
		if _, err := c.LPush(lk, "post"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
