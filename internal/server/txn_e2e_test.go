package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestE2ETxnSIGKILLMidExec is the crash-consistency acceptance test for
// MULTI/EXEC, across a real process kill: build cmd/ralloc-serve, run
// concurrent writers that each apply 8-key transactions while a checkpointer
// SAVEs every ~150ms, SIGKILL the process mid-traffic (almost certainly
// mid-EXEC for several writers), restart, and assert the transactional
// invariant the dispatch design promises:
//
//  1. ALL-OR-NOTHING: for every transaction any writer ever attempted, its 8
//     keys are either all present with the transaction's value or all
//     absent. EXEC runs under one execMu read-side hold, so the quiesced
//     SAVE image — the state a SIGKILL restarts from — can never contain a
//     torn transaction.
//  2. DURABILITY FLOOR: every transaction acknowledged before an
//     acknowledged SAVE is fully present after recovery.
func TestE2ETxnSIGKILLMidExec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess e2e in -short mode")
	}
	dir := t.TempDir()
	bin := serveBinary(t)

	heapPath := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "kv.sock")
	args := []string{"-heap", heapPath, "-unix", sock, "-heapmb", "48", "-buckets", "8192"}

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
	dialRetry().Close() // wait for the server before starting writers

	const writers, txnKeys = 4, 8
	txnKey := func(g int, i int64, j int) string { return fmt.Sprintf("t%d-%06d-%d", g, i, j) }
	txnVal := func(g int, i int64) string { return fmt.Sprintf("w%d-t%06d", g, i) }

	// Writers loop transactions until the kill tears their connection down.
	// attempts[g] counts transactions ever sent; acked[g] is the highest
	// index whose EXEC reply arrived intact.
	var attempts, acked [writers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		acked[g].Store(-1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("writer %d: %v", g, err)
				return
			}
			defer c.Close()
			for i := int64(0); ; i++ {
				cmds := make([][]string, txnKeys)
				for j := 0; j < txnKeys; j++ {
					cmds[j] = []string{"SET", txnKey(g, i, j), txnVal(g, i)}
				}
				attempts[g].Store(i + 1)
				if _, err := c.Txn(cmds...); err != nil {
					return // connection torn down by the kill
				}
				acked[g].Store(i)
			}
		}(g)
	}

	// Checkpointer: snapshot every writer's acked index, SAVE, and (if the
	// SAVE was acknowledged) raise the durability floor to the snapshot —
	// those transactions were acked before the checkpoint began, so the
	// image must contain them wholly.
	var floor [writers]int64
	for g := range floor {
		floor[g] = -1
	}
	saver := dialRetry()
	saves := 0
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		time.Sleep(150 * time.Millisecond)
		var pre [writers]int64
		for g := range pre {
			pre[g] = acked[g].Load()
		}
		if rp, err := saver.Do("SAVE"); err == nil && rp.Str == "OK" {
			floor = pre
			saves++
		}
	}
	if saves == 0 {
		t.Fatal("no SAVE completed before the kill; durability floor untestable")
	}

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	wg.Wait()
	saver.Close()
	for g := 0; g < writers; g++ {
		if acked[g].Load() < 20 {
			t.Fatalf("writer %d acked only %d transactions; traffic too thin to mean anything", g, acked[g].Load())
		}
	}

	// Restart: recover from the last checkpoint and verify the invariants.
	cmd2 := serve()
	defer func() { cmd2.Process.Kill() }()
	c := dialRetry()
	defer c.Close()

	checked, applied := 0, 0
	for g := 0; g < writers; g++ {
		total := attempts[g].Load()
		for base := int64(0); base < total; base += 100 {
			end := base + 100
			if end > total {
				end = total
			}
			for i := base; i < end; i++ {
				keys := make([]string, txnKeys+1)
				keys[0] = "MGET"
				for j := 0; j < txnKeys; j++ {
					keys[j+1] = txnKey(g, i, j)
				}
				if err := c.Send(keys...); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := base; i < end; i++ {
				rp, err := c.Recv()
				if err != nil || len(rp.Elems) != txnKeys {
					t.Fatalf("MGET txn %d/%d = %+v, %v", g, i, rp, err)
				}
				present := 0
				for j, e := range rp.Elems {
					if e.Nil {
						continue
					}
					present++
					if got := string(e.Bulk); got != txnVal(g, i) {
						t.Fatalf("txn %d/%d key %d = %q, want %q", g, i, j, got, txnVal(g, i))
					}
				}
				switch present {
				case 0:
					if i <= floor[g] {
						t.Fatalf("txn %d/%d acked before an acknowledged SAVE but absent after recovery", g, i)
					}
				case txnKeys:
					applied++
				default:
					t.Fatalf("TORN TRANSACTION after SIGKILL recovery: txn %d/%d has %d/%d keys", g, i, present, txnKeys)
				}
				checked++
			}
		}
	}
	t.Logf("checked %d transactions (%d applied, %d saves) across the SIGKILL: none torn", checked, applied, saves)

	// The restarted server still serves transactions.
	rps, err := c.Txn([]string{"SET", "post-kill", "alive"}, []string{"INCR", "post-ctr"})
	if err != nil || len(rps) != 2 || rps[0].Str != "OK" || rps[1].Int != 1 {
		t.Fatalf("post-restart Txn = %+v, %v", rps, err)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	waitExit(t, cmd2, 15*time.Second)
}
