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
// multi-operation units, across a real process kill: build cmd/ralloc-serve
// (-checkpoint 0, and nobody SAVEs), run concurrent writers that each apply
// 8-key transactions, one that MSETs 8 keys at a time and one that RPUSHes 3
// elements at a time, SIGKILL the process mid-traffic (almost certainly
// mid-unit for several writers), restart, and assert what the undo journal
// promises (journal.go):
//
//  1. ALL-OR-NOTHING: for every unit any writer ever attempted — EXEC, MSET or
//     RPUSH — its keys or elements are either all present with the unit's
//     value or all absent. The heap a kill leaves is the live heap, cut
//     wherever the kill fell; the restart rolls the cut unit back.
//  2. DURABILITY: every unit that was acknowledged is fully present.
func TestE2ETxnSIGKILLMidExec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess e2e in -short mode")
	}
	dir := t.TempDir()
	bin := serveBinary(t)

	heapPath := filepath.Join(dir, "kv.heap")
	sock := filepath.Join(dir, "kv.sock")
	args := []string{"-heap", heapPath, "-unix", sock, "-heapmb", "48", "-buckets", "8192", "-checkpoint", "0"}

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

	const writers, txnKeys = 4, 8 // and a fifth, MSET, writer below: index `writers`
	txnKey := func(g int, i int64, j int) string { return fmt.Sprintf("t%d-%06d-%d", g, i, j) }
	txnVal := func(g int, i int64) string { return fmt.Sprintf("w%d-t%06d", g, i) }

	// Writers loop transactions until the kill tears their connection down.
	// attempts[g] counts transactions ever sent; acked[g] is the highest
	// index whose EXEC reply arrived intact.
	var attempts, acked [writers + 1]atomic.Int64
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

	// Two more writers whose unit is one variadic command: writer msetW MSETs
	// txnKeys keys at a time under the transactions' key scheme, and one
	// RPUSHes pushN elements at a time onto one list.
	const msetW, pushN = writers, 3
	var pushAttempts, pushAcked atomic.Int64
	pushAcked.Store(-1)
	acked[msetW].Store(-1)
	for _, run := range []func(c *Client){
		func(c *Client) {
			for i := int64(0); ; i++ {
				cmd := []string{"MSET"}
				for j := 0; j < txnKeys; j++ {
					cmd = append(cmd, txnKey(msetW, i, j), txnVal(msetW, i))
				}
				attempts[msetW].Store(i + 1)
				if rp, err := c.Do(cmd...); err != nil || rp.Str != "OK" {
					return
				}
				acked[msetW].Store(i)
			}
		},
		func(c *Client) {
			for i := int64(0); ; i++ {
				pushAttempts.Store(i + 1)
				if n, err := c.RPush("pushed", fmt.Sprintf("p%06d-0", i), fmt.Sprintf("p%06d-1", i), fmt.Sprintf("p%06d-2", i)); err != nil || n != pushN*(i+1) {
					return
				}
				pushAcked.Store(i)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial("unix", sock)
			if err != nil {
				t.Errorf("unit writer: %v", err)
				return
			}
			defer c.Close()
			run(c)
		}()
	}

	time.Sleep(700 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	wg.Wait()
	for g := 0; g <= writers; g++ {
		if acked[g].Load() < 20 {
			t.Fatalf("writer %d acked only %d units; traffic too thin to mean anything", g, acked[g].Load())
		}
	}
	if pushAcked.Load() < 20 {
		t.Fatalf("the RPUSH writer acked only %d pushes; traffic too thin to mean anything", pushAcked.Load())
	}

	// Restart: recover the heap the kill left and verify the invariants.
	cmd2 := serve()
	defer func() { cmd2.Process.Kill() }()
	c := dialRetry()
	defer c.Close()

	checked, applied := 0, 0
	for g := 0; g <= writers; g++ {
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
					if i <= acked[g].Load() {
						t.Fatalf("unit %d/%d was acknowledged but is absent after recovery", g, i)
					}
				case txnKeys:
					applied++
				default:
					t.Fatalf("TORN UNIT after SIGKILL recovery: unit %d/%d has %d/%d keys", g, i, present, txnKeys)
				}
				checked++
			}
		}
	}
	t.Logf("checked %d EXEC and MSET units (%d applied) across the SIGKILL: none torn, none acknowledged and lost", checked, applied)

	// The list: whole pushes only, in order, every acknowledged one there.
	elems, err := c.LRange("pushed", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.LLen("pushed"); err != nil || int(n) != len(elems) {
		t.Fatalf("LLEN %d disagrees with the walk's %d (%v)", n, len(elems), err)
	}
	if len(elems)%pushN != 0 || int64(len(elems)) < pushN*(pushAcked.Load()+1) || int64(len(elems)) > pushN*pushAttempts.Load() {
		t.Fatalf("TORN RPUSH after SIGKILL recovery: %d elements, %d pushes acknowledged, %d attempted", len(elems), pushAcked.Load()+1, pushAttempts.Load())
	}
	for i, e := range elems {
		if want := fmt.Sprintf("p%06d-%d", i/pushN, i%pushN); e != want {
			t.Fatalf("pushed[%d] = %q, want %q", i, e, want)
		}
	}
	t.Logf("checked %d pushes of %d", len(elems)/pushN, pushN)

	// The restarted server still serves transactions.
	rps, err := c.Txn([]string{"SET", "post-kill", "alive"}, []string{"INCR", "post-ctr"})
	if err != nil || len(rps) != 2 || rps[0].Str != "OK" || rps[1].Int != 1 {
		t.Fatalf("post-restart Txn = %+v, %v", rps, err)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	waitExit(t, cmd2, 15*time.Second)
}
