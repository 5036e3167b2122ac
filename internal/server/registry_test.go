package server

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestArityErrorsForEveryCommand is generated from the registry: for every
// command whose declared arity admits a constructible wrong argument count,
// it sends that count and asserts the exact Redis-compatible error message,
// lowercased command name included. Arity validation runs before the
// handler, so even SHUTDOWN and SAVE are safe to probe this way.
func TestArityErrorsForEveryCommand(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	probe := func(cmd *Command, nargs int) {
		t.Helper()
		args := make([]string, nargs)
		args[0] = strings.ToLower(cmd.Name)
		for i := 1; i < nargs; i++ {
			args[i] = fmt.Sprintf("junk%d", i)
		}
		rp, err := c.Do(args...)
		if err != nil {
			t.Fatalf("%s with %d args: %v", cmd.Name, nargs, err)
		}
		want := fmt.Sprintf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd.Name))
		if rp.Kind != '-' || rp.Str != want {
			t.Fatalf("%s with %d args replied %q, want %q", cmd.Name, nargs, rp.Str, want)
		}
	}

	probed := 0
	for _, cmd := range Commands() {
		var wrong []int
		if cmd.Arity > 0 {
			if cmd.Arity-1 >= 1 {
				wrong = append(wrong, cmd.Arity-1)
			}
			wrong = append(wrong, cmd.Arity+1)
		} else if -cmd.Arity-1 >= 1 {
			wrong = append(wrong, -cmd.Arity-1)
		}
		for _, n := range wrong {
			probe(cmd, n)
			probed++
		}
	}
	if probed < 24 {
		t.Fatalf("only %d arity probes generated from the registry — table shrank?", probed)
	}

	// Handler-level arity checks follow the same message contract: PING
	// accepts 1 or 2 arguments, MSET needs matched pairs.
	if rp, _ := c.Do("PING", "a", "b"); rp.Kind != '-' ||
		rp.Str != "ERR wrong number of arguments for 'ping' command" {
		t.Fatalf("PING a b = %+v", rp)
	}
	if rp, _ := c.Do("MSET", "k1", "v1", "k2"); rp.Kind != '-' ||
		rp.Str != "ERR wrong number of arguments for 'mset' command" {
		t.Fatalf("unpaired MSET = %+v", rp)
	}
}

func TestUnknownCommandMessage(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	rp, err := c.Do("NoSuchCmd", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || rp.Str != "ERR unknown command 'nosuchcmd'" {
		t.Fatalf("unknown command reply = %q", rp.Str)
	}
}

// TestErrorReplySanitized pins the errorBody containment: error replies echo
// client bytes (unknown command and subcommand names), and a CRLF smuggled
// into such a name must not split the reply line — that desynchronizes every
// reply after it. Control bytes become spaces, oversized echoes are capped.
func TestErrorReplySanitized(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	// CRLF inside an unknown command name (bulk framing permits any bytes).
	rp, err := c.Do("BAD\r\nXY")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || rp.Str != "ERR unknown command 'bad  xy'" {
		t.Fatalf("CRLF-name reply = %q", rp.Str)
	}

	// Same vector through the COMMAND subcommand echo.
	rp, err = c.Do("COMMAND", "NO\r\nPE")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || !strings.Contains(rp.Str, "'no  pe'") {
		t.Fatalf("CRLF-subcommand reply = %q", rp.Str)
	}

	// A huge unknown name is echoed truncated, not in full.
	rp, err = c.Do(strings.Repeat("Z", 100000))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || len(rp.Str) > maxErrorBodyLen+len("ERR ...") || !strings.HasSuffix(rp.Str, "...") {
		t.Fatalf("oversized-name reply = %d bytes, suffix %q", len(rp.Str), rp.Str[max(0, len(rp.Str)-16):])
	}

	// The reply stream is still synchronized after all of the above.
	if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Fatalf("PING after hostile errors = %+v, %v", rp, err)
	}
}

// TestPanicReleasesLocks: dispatch releases stripe locks and the execMu
// read side via defer, so a panic recovered above dispatch (an embedder
// wrapping Serve, a test or fuzz harness driving dispatch directly) leaves
// no server lock held — the process doesn't wedge every future writer on
// those stripes, or every future SAVE, on its way to fail-stop.
func TestPanicReleasesLocks(t *testing.T) {
	e := newBenchEnv(t, Config{})
	for _, bc := range e.srv.cmds {
		run := bc.run
		bc.run = func(ctx *Ctx) {
			for _, a := range ctx.args[1:] {
				if string(a) == "PANIC" {
					panic("handler kaboom")
				}
			}
			run(ctx)
		}
	}

	run := func(cs *connState, args ...string) (panicked bool) {
		bargs := make([][]byte, len(args))
		for i, a := range args {
			bargs[i] = []byte(a)
		}
		ctx := &Ctx{s: e.srv, hd: e.hd, w: newRespWriter(io.Discard), cs: cs}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.srv.dispatch(ctx, bargs)
		return false
	}

	// Panic on every lock path: single-stripe write, multi-stripe write, and
	// EXEC holding a transaction's union stripes.
	if !run(&connState{}, "SET", "pk", "PANIC") {
		t.Fatal("single-key SET did not panic")
	}
	if !run(&connState{}, "MSET", "pa", "1", "pb", "PANIC") {
		t.Fatal("MSET did not panic")
	}
	cs := &connState{}
	run(cs, "MULTI")
	if run(cs, "SET", "pk", "PANIC") {
		t.Fatal("queueing panicked — a handler must not run at queue time")
	}
	if !run(cs, "EXEC") {
		t.Fatal("EXEC did not panic")
	}

	// Every lock those invocations held must be free again: the same keys
	// (same stripes) and the checkpoint barrier's write side all acquire
	// without blocking.
	ok := make(chan struct{})
	go func() {
		defer close(ok)
		if run(&connState{}, "SET", "pk", "v") {
			t.Error("clean SET panicked")
		}
		if run(&connState{}, "MSET", "pa", "1", "pb", "2") {
			t.Error("clean MSET panicked")
		}
		e.srv.shards[0].locks.Exec.Lock()
		e.srv.shards[0].locks.Exec.Unlock()
	}()
	select {
	case <-ok:
	case <-time.After(10 * time.Second):
		t.Fatal("locks still held after recovered panic: follow-up commands wedged")
	}
}

func TestCommandIntrospection(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	n, err := c.CommandCount()
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != CommandCount() {
		t.Fatalf("COMMAND COUNT = %d, registry has %d", n, CommandCount())
	}
	if n < 24 {
		t.Fatalf("COMMAND COUNT = %d, want >= 24", n)
	}

	// The full COMMAND reply: one 6-element entry per registry command, in
	// sorted-name order, with flags and key specs matching the table.
	rp, err := c.Do("COMMAND")
	if err != nil || rp.Kind != '*' {
		t.Fatalf("COMMAND = %+v, %v", rp, err)
	}
	if len(rp.Elems) != CommandCount() {
		t.Fatalf("COMMAND returned %d entries, want %d", len(rp.Elems), CommandCount())
	}
	for i, cmd := range Commands() {
		e := rp.Elems[i]
		if len(e.Elems) != 6 {
			t.Fatalf("entry %d has %d elements", i, len(e.Elems))
		}
		if got := string(e.Elems[0].Bulk); got != strings.ToLower(cmd.Name) {
			t.Fatalf("entry %d name = %q, want %q", i, got, strings.ToLower(cmd.Name))
		}
		if e.Elems[1].Int != int64(cmd.Arity) {
			t.Fatalf("%s arity = %d, want %d", cmd.Name, e.Elems[1].Int, cmd.Arity)
		}
		if len(e.Elems[2].Elems) != len(cmd.Flags.names()) {
			t.Fatalf("%s flags = %+v, want %v", cmd.Name, e.Elems[2].Elems, cmd.Flags.names())
		}
		if e.Elems[3].Int != int64(cmd.Keys.First) || e.Elems[4].Int != int64(cmd.Keys.Last) || e.Elems[5].Int != int64(cmd.Keys.Step) {
			t.Fatalf("%s keyspec = %d,%d,%d, want %+v", cmd.Name, e.Elems[3].Int, e.Elems[4].Int, e.Elems[5].Int, cmd.Keys)
		}
	}

	// COMMAND INFO: known names yield entries, unknown a nil element.
	rp, err = c.Do("COMMAND", "INFO", "get", "nosuch", "MULTI")
	if err != nil || rp.Kind != '*' || len(rp.Elems) != 3 {
		t.Fatalf("COMMAND INFO = %+v, %v", rp, err)
	}
	if string(rp.Elems[0].Elems[0].Bulk) != "get" || !rp.Elems[1].Nil || string(rp.Elems[2].Elems[0].Bulk) != "multi" {
		t.Fatalf("COMMAND INFO elems = %+v", rp.Elems)
	}

	if rp, _ := c.Do("COMMAND", "NOSUB"); rp.Kind != '-' || !strings.Contains(rp.Str, "unknown subcommand") {
		t.Fatalf("COMMAND NOSUB = %+v", rp)
	}
}

func TestNewRegistryCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if got, err := c.Echo("hello registry"); err != nil || got != "hello registry" {
		t.Fatalf("ECHO = %q, %v", got, err)
	}

	if typ, err := c.Type("absent"); err != nil || typ != "none" {
		t.Fatalf("TYPE absent = %q, %v", typ, err)
	}
	if err := c.Set("typed", "v"); err != nil {
		t.Fatal(err)
	}
	if typ, err := c.Type("typed"); err != nil || typ != "string" {
		t.Fatalf("TYPE typed = %q, %v", typ, err)
	}

	if _, ok, err := c.GetDel("absent"); err != nil || ok {
		t.Fatalf("GETDEL absent = %v, %v", ok, err)
	}
	if v, ok, err := c.GetDel("typed"); err != nil || !ok || v != "v" {
		t.Fatalf("GETDEL typed = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := c.Get("typed"); ok {
		t.Fatal("key survived GETDEL")
	}
	if typ, _ := c.Type("typed"); typ != "none" {
		t.Fatalf("TYPE after GETDEL = %q", typ)
	}
}

func TestInfoCommandStats(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("cs-%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(fmt.Sprintf("cs-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// One error reply, attributed to INCR by the stats layer.
	if rp, _ := c.Do("INCR", "cs-0"); rp.Kind != '-' {
		t.Fatalf("INCR on text = %+v", rp)
	}

	rp, err := c.Do("INFO", "commandstats")
	if err != nil || rp.Kind != '$' {
		t.Fatalf("INFO commandstats = %+v, %v", rp, err)
	}
	stats := string(rp.Bulk)
	if !strings.Contains(stats, "# Commandstats") {
		t.Fatalf("missing section header:\n%s", stats)
	}
	for _, want := range []string{"cmdstat_set:calls=20,", "cmdstat_get:calls=20,", "errors=0"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("commandstats missing %q:\n%s", want, stats)
		}
	}
	if !strings.Contains(stats, "cmdstat_incr:calls=1,") || !strings.Contains(stats, "usec_per_call=") {
		t.Fatalf("commandstats incr line wrong:\n%s", stats)
	}
	// The INCR error is counted.
	for _, line := range strings.Split(stats, "\r\n") {
		if strings.HasPrefix(line, "cmdstat_incr:") && !strings.HasSuffix(line, "errors=1") {
			t.Fatalf("incr line = %q, want errors=1", line)
		}
	}
	// Never-called commands do not appear.
	if strings.Contains(stats, "cmdstat_flushall") {
		t.Fatalf("uncalled command in commandstats:\n%s", stats)
	}

	// INFO <section> filters to the named block; an unknown section falls
	// back to the full reply (the old switch's tolerant behavior, which
	// clients sending "INFO server" or "INFO all" rely on).
	rp, err = c.Do("INFO", "server")
	if err != nil || !strings.Contains(string(rp.Bulk), "# Server") ||
		strings.Contains(string(rp.Bulk), "# Keyspace") {
		t.Fatalf("INFO server = %q, %v", rp.Bulk, err)
	}
	rp, err = c.Do("INFO", "Expires")
	if err != nil || !strings.HasPrefix(string(rp.Bulk), "# Expires\r\n") {
		t.Fatalf("INFO Expires = %q, %v", rp.Bulk, err)
	}
	if rp, _ := c.Do("INFO", "nosection"); !strings.Contains(string(rp.Bulk), "# Server") {
		t.Fatalf("INFO nosection = %+v", rp)
	}
	if rp, _ := c.Do("INFO"); !strings.Contains(string(rp.Bulk), "# Server") {
		t.Fatalf("INFO = %+v", rp)
	}
}

// TestREADMECommandTable pins the README's command reference to the
// registry: the block between the markers must be exactly
// CommandTableMarkdown()'s rendering. On drift it prints the expected block
// to paste in.
func TestREADMECommandTable(t *testing.T) {
	const begin, end = "<!-- BEGIN COMMAND TABLE (generated from internal/server/commands.go) -->", "<!-- END COMMAND TABLE -->"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the command-table markers %q ... %q", begin, end)
	}
	got := strings.TrimSpace(text[i+len(begin) : j])
	want := strings.TrimSpace(CommandTableMarkdown())
	if got != want {
		t.Fatalf("README command table drifted from the registry.\nReplace the block between the markers with:\n\n%s", want)
	}
}
