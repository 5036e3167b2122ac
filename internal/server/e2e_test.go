package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// serveBin is the ralloc-serve binary the subprocess drills run: linked
// once per test process, into a directory TestMain removes.
var serveBin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func serveBinary(t *testing.T) string {
	t.Helper()
	serveBin.once.Do(func() {
		if serveBin.dir, serveBin.err = os.MkdirTemp("", "ralloc-serve-e2e-"); serveBin.err != nil {
			return
		}
		serveBin.path = filepath.Join(serveBin.dir, "ralloc-serve")
		build := exec.Command("go", "build", "-o", serveBin.path, "repro/cmd/ralloc-serve")
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			serveBin.err = fmt.Errorf("go build ralloc-serve: %v\n%s", err, out)
		}
	})
	if serveBin.err != nil {
		t.Fatal(serveBin.err)
	}
	return serveBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin.dir != "" {
		os.RemoveAll(serveBin.dir)
	}
	os.Exit(code)
}

// TestE2ESIGKILLRestart exercises the real binary across a real process
// kill: build cmd/ralloc-serve, run it on a unix socket with a file-backed
// heap, drive 10k pipelined SETs, overwrite 500 of them, SIGKILL the process,
// restart it, and verify the server comes up dirty → recovered with DBSIZE
// exact and EVERY acknowledged write in place — the heap is the mapped file,
// so what a kill leaves is the heap, not the last checkpoint. Once with a SAVE
// in the middle (the overwrites land after it: the backup it wrote must not
// be what the restart serves) and once with -checkpoint 0 and no SAVE at all.
// Then a clean SHUTDOWN and a clean third start.
func TestE2ESIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess e2e in -short mode")
	}
	t.Run("SAVE then more writes", func(t *testing.T) { e2eSIGKILLRestart(t, true) })
	t.Run("no SAVE at all", func(t *testing.T) { e2eSIGKILLRestart(t, false) })
}

func e2eSIGKILLRestart(t *testing.T, save bool) {
	dir := t.TempDir()
	bin := serveBinary(t)

	heapPath := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "kv.sock")
	args := []string{"-heap", heapPath, "-unix", sock, "-heapmb", "64", "-buckets", "8192", "-checkpoint", "0"}

	serve := func() *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting ralloc-serve: %v", err)
		}
		return cmd
	}
	dialRetry := func() *Client {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := DialTimeout("unix", sock, time.Second)
			if err == nil {
				return c
			}
			if time.Now().After(deadline) {
				t.Fatalf("server did not come up: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	cmd := serve()
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}()
	c := dialRetry()

	// 10k pipelined SETs in batches of 200.
	const total, batch, rewritten = 10000, 200, 500
	for base := 0; base < total; base += batch {
		for i := base; i < base+batch; i++ {
			if err := c.Send("SET", fmt.Sprintf("e2e-%05d", i), fmt.Sprintf("val-%05d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			rp, err := c.Recv()
			if err != nil || rp.Str != "OK" {
				t.Fatalf("pipelined SET reply = %+v, %v", rp, err)
			}
		}
	}
	if n, err := c.DBSize(); err != nil || n != total {
		t.Fatalf("DBSIZE = %d, %v", n, err)
	}
	if save {
		if rp, err := c.Do("SAVE"); err != nil || rp.Str != "OK" {
			t.Fatalf("SAVE = %+v, %v", rp, err)
		}
		if _, err := os.Stat(heapPath + ".save"); err != nil {
			t.Fatalf("SAVE left no backup beside the heap: %v", err)
		}
	}

	// Keep traffic flowing, then yank the process the moment the last
	// overwrite is acknowledged.
	for i := 0; i < rewritten; i++ {
		if err := c.Set(fmt.Sprintf("e2e-%05d", i), "post-save"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	c.Close()

	// Restart: must come up from the heap file, dirty, recover, serve.
	cmd2 := serve()
	defer func() { cmd2.Process.Kill() }()
	c2 := dialRetry()
	defer c2.Close()

	if n, err := c2.DBSize(); err != nil || n != total {
		t.Fatalf("DBSIZE after SIGKILL restart = %d, %v (want %d)", n, err, total)
	}
	if rp, err := c2.Do("INFO", "persistence"); err != nil || !strings.Contains(string(rp.Bulk), "recovered_at_start:true") ||
		!strings.Contains(string(rp.Bulk), "heap_backing:mmap") {
		t.Fatalf("INFO persistence after the kill: %v, %v", rp.Text(), err)
	}
	for base := 0; base < total; base += batch {
		for i := base; i < base+batch; i++ {
			if err := c2.Send("GET", fmt.Sprintf("e2e-%05d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c2.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := base; i < base+batch; i++ {
			want := fmt.Sprintf("val-%05d", i)
			if i < rewritten {
				want = "post-save"
			}
			if rp, err := c2.Recv(); err != nil || string(rp.Bulk) != want {
				t.Fatalf("acknowledged write lost across the kill: e2e-%05d = %q (%v), want %q", i, rp.Bulk, err, want)
			}
		}
	}
	// Still writable, and a clean SHUTDOWN syncs the heap with the dirty
	// flag cleared: the third start must report a clean reopen instantly.
	if err := c2.Set("after-restart", "ok"); err != nil {
		t.Fatal(err)
	}
	if rp, err := c2.Do("SHUTDOWN"); err != nil || rp.Str != "OK" {
		t.Fatalf("SHUTDOWN = %+v, %v", rp, err)
	}
	waitExit(t, cmd2, 15*time.Second)

	cmd3 := serve()
	defer func() { cmd3.Process.Kill() }()
	c3 := dialRetry()
	defer c3.Close()
	if v, ok, err := c3.Get("after-restart"); err != nil || !ok || v != "ok" {
		t.Fatalf("clean-shutdown write lost: (%q,%v,%v)", v, ok, err)
	}
	if n, err := c3.DBSize(); err != nil || n != total+1 {
		t.Fatalf("DBSIZE after clean restart = %d, %v", n, err)
	}
	if rp, err := c3.Do("INFO", "persistence"); err != nil || !strings.Contains(string(rp.Bulk), "recovered_at_start:false") {
		t.Fatalf("INFO persistence after the clean shutdown: %v, %v", rp.Text(), err)
	}
	cmd3.Process.Signal(syscall.SIGTERM)
	waitExit(t, cmd3, 15*time.Second)
}

func waitExit(t *testing.T, cmd *exec.Cmd, timeout time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with error: %v", err)
		}
	case <-time.After(timeout):
		cmd.Process.Kill()
		t.Fatal("server did not exit in time")
	}
}
