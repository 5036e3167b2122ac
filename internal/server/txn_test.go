package server

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/resp"
)

func TestMultiExecBasic(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if err := c.Multi(); err != nil {
		t.Fatal(err)
	}
	// Queued commands reply +QUEUED and have no effect yet.
	for _, cmd := range [][]string{
		{"SET", "tx-a", "1"},
		{"INCR", "tx-a"},
		{"GET", "tx-a"},
		{"GET", "tx-missing"},
	} {
		rp, err := c.Do(cmd...)
		if err != nil || rp.Str != "QUEUED" {
			t.Fatalf("%v = %+v, %v (want +QUEUED)", cmd, rp, err)
		}
	}
	c2 := dial(t, ts)
	if _, ok, _ := c2.Get("tx-a"); ok {
		t.Fatal("queued SET visible before EXEC")
	}

	rps, err := c.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != 4 {
		t.Fatalf("EXEC returned %d replies, want 4", len(rps))
	}
	if rps[0].Str != "OK" || rps[1].Int != 2 || string(rps[2].Bulk) != "2" || !rps[3].Nil {
		t.Fatalf("EXEC replies = %+v", rps)
	}
	if v, ok, _ := c2.Get("tx-a"); !ok || v != "2" {
		t.Fatalf("tx-a after EXEC = (%q,%v)", v, ok)
	}

	// The transaction is closed: another EXEC is an error, and ordinary
	// commands run immediately again.
	if rp, _ := c.Do("EXEC"); rp.Kind != '-' || !strings.Contains(rp.Str, "EXEC without MULTI") {
		t.Fatalf("second EXEC = %+v", rp)
	}
	if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Fatalf("PING after EXEC = %+v, %v", rp, err)
	}
}

func TestTxnHelperAndEmptyExec(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	rps, err := c.Txn([]string{"MSET", "h-a", "1", "h-b", "2"}, []string{"DEL", "h-a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != 2 || rps[0].Str != "OK" || rps[1].Int != 1 {
		t.Fatalf("Txn replies = %+v", rps)
	}
	if _, ok, _ := c.Get("h-a"); ok {
		t.Fatal("h-a survived the transaction's DEL")
	}
	if v, ok, _ := c.Get("h-b"); !ok || v != "2" {
		t.Fatalf("h-b = (%q,%v)", v, ok)
	}

	// An empty transaction EXECs to an empty array.
	rps, err = c.Txn()
	if err != nil || len(rps) != 0 {
		t.Fatalf("empty Txn = %+v, %v", rps, err)
	}
}

func TestDiscard(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if err := c.Multi(); err != nil {
		t.Fatal(err)
	}
	if rp, _ := c.Do("SET", "d-k", "v"); rp.Str != "QUEUED" {
		t.Fatalf("queued SET = %+v", rp)
	}
	if err := c.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("d-k"); ok {
		t.Fatal("DISCARDed SET applied")
	}
	if rp, _ := c.Do("EXEC"); rp.Kind != '-' || !strings.Contains(rp.Str, "EXEC without MULTI") {
		t.Fatalf("EXEC after DISCARD = %+v", rp)
	}
	if rp, _ := c.Do("DISCARD"); rp.Kind != '-' || !strings.Contains(rp.Str, "DISCARD without MULTI") {
		t.Fatalf("bare DISCARD = %+v", rp)
	}
}

func TestNestedMultiIsErrorButNotPoison(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if err := c.Multi(); err != nil {
		t.Fatal(err)
	}
	if rp, _ := c.Do("MULTI"); rp.Kind != '-' || !strings.Contains(rp.Str, "MULTI calls can not be nested") {
		t.Fatalf("nested MULTI = %+v", rp)
	}
	// Like Redis, the nested-MULTI error does not poison the transaction.
	if rp, _ := c.Do("SET", "n-k", "v"); rp.Str != "QUEUED" {
		t.Fatalf("SET after nested MULTI = %+v", rp)
	}
	rps, err := c.Exec()
	if err != nil || len(rps) != 1 || rps[0].Str != "OK" {
		t.Fatalf("EXEC = %+v, %v", rps, err)
	}
	if v, ok, _ := c.Get("n-k"); !ok || v != "v" {
		t.Fatalf("n-k = (%q,%v)", v, ok)
	}
}

func TestQueueTimeValidationAbortsExec(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	for name, poison := range map[string][]string{
		"unknown command": {"NOSUCHCMD", "x"},
		"wrong arity":     {"GET"},
		"denied SAVE":     {"SAVE"},
		"denied SHUTDOWN": {"SHUTDOWN"},
	} {
		t.Run(name, func(t *testing.T) {
			c := dial(t, ts)
			if err := c.Multi(); err != nil {
				t.Fatal(err)
			}
			if rp, _ := c.Do("SET", "q-k", "v"); rp.Str != "QUEUED" {
				t.Fatalf("SET = %+v", rp)
			}
			// The poison command is rejected immediately...
			if rp, _ := c.Do(poison...); rp.Kind != '-' {
				t.Fatalf("poison %v = %+v (want error)", poison, rp)
			}
			// ...valid commands still queue...
			if rp, _ := c.Do("SET", "q-k2", "v"); rp.Str != "QUEUED" {
				t.Fatalf("SET after poison = %+v", rp)
			}
			// ...and EXEC aborts with EXECABORT, applying nothing.
			rp, err := c.Do("EXEC")
			if err != nil || rp.Kind != '-' || !strings.HasPrefix(rp.Str, "EXECABORT") {
				t.Fatalf("EXEC = %+v, %v (want -EXECABORT)", rp, err)
			}
			if _, ok, _ := c.Get("q-k"); ok {
				t.Fatal("aborted transaction applied a queued SET")
			}
			// The connection (and server) remain fully usable.
			if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
				t.Fatalf("PING after EXECABORT = %+v, %v", rp, err)
			}
		})
	}
}

func TestErrorInsideExecDoesNotAbort(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	if err := c.Set("e-text", "not-a-number"); err != nil {
		t.Fatal(err)
	}
	rps, err := c.Txn(
		[]string{"SET", "e-a", "1"},
		[]string{"INCR", "e-text"}, // fails at execution time
		[]string{"SET", "e-b", "2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != 3 {
		t.Fatalf("EXEC returned %d replies", len(rps))
	}
	if rps[0].Str != "OK" || rps[1].Kind != '-' || rps[2].Str != "OK" {
		t.Fatalf("EXEC replies = %+v", rps)
	}
	for _, k := range []string{"e-a", "e-b"} {
		if _, ok, _ := c.Get(k); !ok {
			t.Fatalf("%s not applied despite mid-EXEC error elsewhere", k)
		}
	}
}

func TestFlushallInsideTxn(t *testing.T) {
	// FLUSHALL is FlagLockAll: inside a transaction the union lock
	// escalates to every stripe and the queue still runs in order.
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	if err := c.Set("f-old", "v"); err != nil {
		t.Fatal(err)
	}
	rps, err := c.Txn(
		[]string{"SET", "f-mid", "v"},
		[]string{"FLUSHALL"},
		[]string{"SET", "f-new", "v"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rps[0].Str != "OK" || rps[1].Str != "OK" || rps[2].Str != "OK" {
		t.Fatalf("EXEC replies = %+v", rps)
	}
	for _, gone := range []string{"f-old", "f-mid"} {
		if _, ok, _ := c.Get(gone); ok {
			t.Fatalf("%s survived FLUSHALL inside the transaction", gone)
		}
	}
	if _, ok, _ := c.Get("f-new"); !ok {
		t.Fatal("f-new (queued after FLUSHALL) missing")
	}
}

func TestTxnQueueCap(t *testing.T) {
	// The MULTI queue is bounded: command maxTxnQueue+1 is rejected, the
	// transaction is poisoned, and EXEC aborts — one connection cannot
	// accumulate unbounded retained commands.
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	if err := c.Multi(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTxnQueue; i++ {
		if err := c.Send("SET", "cap-k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTxnQueue; i++ {
		if rp, err := c.Recv(); err != nil || rp.Str != "QUEUED" {
			t.Fatalf("queued %d = %+v, %v", i, rp, err)
		}
	}
	rp, err := c.Do("SET", "cap-k", "v")
	if err != nil || rp.Kind != '-' || !strings.Contains(rp.Str, "transaction queue limit") {
		t.Fatalf("over-cap queue = %+v, %v", rp, err)
	}
	if rp, err := c.Do("EXEC"); err != nil || !strings.HasPrefix(rp.Str, "EXECABORT") {
		t.Fatalf("EXEC after overflow = %+v, %v", rp, err)
	}
	if _, ok, _ := c.Get("cap-k"); ok {
		t.Fatal("overflowed transaction applied")
	}
}

// TestTxnQueueByteCap exercises the byte budget at the enqueue level —
// driving 256MB of bulk data over a socket would dominate the suite. A few
// resp.MaxBulkLen-sized commands (sharing one backing array) must trip the cap
// long before the 4096-command count cap, and reset must drop the retained
// references so an idle connection doesn't pin the transaction's data.
func TestTxnQueueByteCap(t *testing.T) {
	big := make([]byte, resp.MaxBulkLen)
	cs := &connState{inTxn: true}
	ctx := &Ctx{w: newRespWriter(io.Discard), cs: cs}
	bc := &boundCmd{cmd: commandTable["SET"]}
	args := [][]byte{[]byte("SET"), []byte("k"), big}
	per := len(args[0]) + len(args[1]) + len(args[2]) + len(args)*txnArgOverhead

	admitted := 0
	for ; cs.queuedBytes+per <= maxTxnQueueBytes; admitted++ {
		cs.enqueue(ctx, bc, args)
		if cs.dirty {
			t.Fatalf("queue poisoned early: %d commands, %d bytes", admitted, cs.queuedBytes)
		}
	}
	if admitted >= maxTxnQueue {
		t.Fatalf("byte cap never binds: %d commands admitted", admitted)
	}
	cs.enqueue(ctx, bc, args)
	if !cs.dirty {
		t.Fatalf("queue exceeded maxTxnQueueBytes (%d commands, %d bytes) without poisoning",
			len(cs.queue), cs.queuedBytes)
	}

	cs.reset()
	if cs.queuedBytes != 0 || len(cs.queue) != 0 {
		t.Fatalf("reset left queuedBytes=%d len=%d", cs.queuedBytes, len(cs.queue))
	}
	for i, q := range cs.queue[:cap(cs.queue)] {
		if q.bc != nil || q.args != nil {
			t.Fatalf("reset retained queue entry %d: %+v", i, q)
		}
	}
}

func TestConcurrentTxnAtomicity(t *testing.T) {
	// Two counters incremented only inside transactions must stay equal in
	// every transaction's view and end at the exact total: EXEC's union
	// locking makes the pair of INCRs atomic against other transactions.
	ts := startServer(t, Config{}, 0)
	const clients, txns = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial("unix", ts.sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < txns; i++ {
				rps, err := c.Txn([]string{"INCR", "ctr-a"}, []string{"INCR", "ctr-b"})
				if err != nil {
					t.Error(err)
					return
				}
				if rps[0].Int != rps[1].Int {
					t.Errorf("transaction observed torn counters: %d vs %d", rps[0].Int, rps[1].Int)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := dial(t, ts)
	want := fmt.Sprint(clients * txns)
	for _, k := range []string{"ctr-a", "ctr-b"} {
		if v, ok, _ := c.Get(k); !ok || v != want {
			t.Fatalf("%s = %q, want %s", k, v, want)
		}
	}
	if _, err := ts.heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWriteLockOrdering(t *testing.T) {
	// Multi-stripe writers (MSET, transactions, FLUSHALL's all-stripe
	// lock) running concurrently must not deadlock: every path acquires
	// stripes in ascending order. A deadlock here fails the test by timeout.
	ts := startServer(t, Config{}, 0)
	const clients = 6
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
			for i := 0; i < 50; i++ {
				switch g % 3 {
				case 0:
					if rp, err := c.Do("MSET", fmt.Sprintf("m-%d", i), "v", fmt.Sprintf("m-%d", i+1), "v", "m-shared", "v"); err != nil || rp.Kind == '-' {
						t.Errorf("MSET: %+v, %v", rp, err)
						return
					}
				case 1:
					if _, err := c.Txn([]string{"INCR", "m-ctr"}, []string{"DEL", fmt.Sprintf("m-%d", i)}, []string{"SET", "m-shared", "t"}); err != nil {
						t.Errorf("Txn: %v", err)
						return
					}
				case 2:
					if rp, err := c.Do("FLUSHALL"); err != nil || rp.Str != "OK" {
						t.Errorf("FLUSHALL: %+v, %v", rp, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := ts.heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
