package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestE2ETTLSIGKILLRestart is the acceptance e2e for the expiration
// subsystem, across a real process kill: build cmd/ralloc-serve (-checkpoint
// 0, and no SAVE: the mapped heap is all a restart has), drive 10k pipelined
// ops with mixed TTLs (immortal, 1h, 2h, and 400ms records), let the short
// TTLs lapse, SIGKILL, restart — then every expired key must
// report absent (never resurrected, whether or not its corpse was
// reclaimed), every unexpired key must retain its exact value, and the
// long-TTL keys must report a *remaining* TTL: positive, under the original,
// still counting down across the crash because the persisted deadline is
// absolute wall-clock time.
func TestE2ETTLSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess e2e in -short mode")
	}
	dir := t.TempDir()
	bin := serveBinary(t)

	heapPath := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "kv.sock")
	args := []string{"-heap", heapPath, "-unix", sock, "-heapmb", "64", "-buckets", "8192",
		"-expire-cycle", "20ms", "-expire-sample", "200", "-checkpoint", "0"}

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

	// 10k pipelined ops, four interleaved classes of key lifetime.
	const total, batch = 10000, 250
	val := func(i int) string { return fmt.Sprintf("val-%05d", i) }
	send := func(i int) error {
		switch i % 4 {
		case 0: // immortal
			return c.Send("SET", fmt.Sprintf("live-%05d", i), val(i))
		case 1: // long TTL (1h, milliseconds)
			return c.Send("PSETEX", fmt.Sprintf("keep-%05d", i), "3600000", val(i))
		case 2: // short TTL: lapses before the restart check
			return c.Send("PSETEX", fmt.Sprintf("gone-%05d", i), "400", val(i))
		default: // long TTL (2h, seconds resolution)
			return c.Send("SETEX", fmt.Sprintf("keepsec-%05d", i), "7200", val(i))
		}
	}
	for base := 0; base < total; base += batch {
		for i := base; i < base+batch; i++ {
			if err := send(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			rp, err := c.Recv()
			if err != nil || rp.Str != "OK" {
				t.Fatalf("pipelined reply = %+v, %v", rp, err)
			}
		}
	}
	// Let every short TTL lapse (the active cycle reclaims some corpses,
	// lazy expiry covers the rest), then yank the process.
	time.Sleep(600 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	c.Close()

	// Restart from the heap file: dirty open, GC recovery, keep serving.
	cmd2 := serve()
	defer func() { cmd2.Process.Kill() }()
	c2 := dialRetry()
	defer c2.Close()

	for i := 0; i < total; i++ {
		key := ""
		switch i % 4 {
		case 0:
			key = fmt.Sprintf("live-%05d", i)
		case 1:
			key = fmt.Sprintf("keep-%05d", i)
		case 2:
			key = fmt.Sprintf("gone-%05d", i)
		default:
			key = fmt.Sprintf("keepsec-%05d", i)
		}
		if i%4 == 2 {
			// Expired before the kill — reclaimed by the cycle or still a
			// corpse in the heap, either way: absent, no TTL, never a value.
			if v, ok, err := c2.Get(key); err != nil {
				t.Fatal(err)
			} else if ok {
				t.Fatalf("expired key %s resurrected as %q after SIGKILL restart", key, v)
			}
			if n, err := c2.PTTL(key); err != nil || n != -2 {
				t.Fatalf("PTTL %s = %d, %v (want -2)", key, n, err)
			}
			continue
		}
		v, ok, err := c2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != val(i) {
			t.Fatalf("unexpired key %s = (%q,%v) after restart, want %q", key, v, ok, val(i))
		}
		switch i % 4 {
		case 0:
			if n, err := c2.TTL(key); err != nil || n != -1 {
				t.Fatalf("TTL %s = %d, %v (want -1)", key, n, err)
			}
		case 1:
			// Remaining TTL: positive, strictly below the original 1h
			// (at least the 600ms pre-kill sleep elapsed on the wall
			// clock the stamp is measured against).
			if n, err := c2.PTTL(key); err != nil || n <= 0 || n > 3_600_000-500 {
				t.Fatalf("PTTL %s = %d, %v (want 0 < ttl <= %d)", key, n, err, 3_600_000-500)
			}
		default:
			if n, err := c2.TTL(key); err != nil || n <= 0 || n > 7200 {
				t.Fatalf("TTL %s = %d, %v (want 0 < ttl <= 7200)", key, n, err)
			}
		}
	}

	// The active cycle keeps reclaiming the 2500 expired corpses after the
	// restart: DBSIZE must drain to exactly the 7500 live records.
	deadline := time.Now().Add(15 * time.Second)
	for {
		n, err := c2.DBSize()
		if err != nil {
			t.Fatal(err)
		}
		if n == total-total/4 {
			break
		}
		if n < int64(total-total/4) {
			t.Fatalf("DBSIZE = %d: active expiry reclaimed a live key", n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("DBSIZE stuck at %d, want %d", n, total-total/4)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if rp, err := c2.Do("SHUTDOWN"); err != nil || rp.Str != "OK" {
		t.Fatalf("SHUTDOWN = %+v, %v", rp, err)
	}
	waitExit(t, cmd2, 15*time.Second)
}
