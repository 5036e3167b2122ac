package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/resp"
)

// Native Go fuzzing over the connection's command reader and the dispatch
// pipeline behind it (the reply decoder's target lives with the decoder, in
// internal/resp). The reader faces the network, so the property under test
// is total robustness: for ANY byte stream — pipelined, truncated, oversized,
// malformed, hostile — it must return commands or a clean error, never
// panic, and never allocate unboundedly from a tiny header.

// fuzzSeedCommands is the seed corpus for the server-side command reader.
var fuzzSeedCommands = []string{
	// Well-formed single and pipelined commands.
	"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
	"*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
	"*3\r\n$6\r\nEXPIRE\r\n$1\r\nk\r\n$2\r\n10\r\n",
	"*4\r\n$6\r\nPSETEX\r\n$1\r\nk\r\n$3\r\n100\r\n$1\r\nv\r\n",
	// Inline commands and blank lines.
	"PING\r\n",
	"GET some-key\r\n",
	"   \r\n\r\nPING\r\n",
	// Transactions: queue-time validation paths (MULTI/EXEC/DISCARD,
	// unknown and wrong-arity commands inside a queue, EXECABORT, nesting).
	"*1\r\n$5\r\nMULTI\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*1\r\n$4\r\nEXEC\r\n",
	"*1\r\n$5\r\nMULTI\r\n*2\r\n$6\r\nNOSUCH\r\n$1\r\nx\r\n*1\r\n$4\r\nEXEC\r\n",
	"*1\r\n$5\r\nMULTI\r\n*1\r\n$3\r\nGET\r\n*1\r\n$4\r\nEXEC\r\n",
	"*1\r\n$5\r\nMULTI\r\n*1\r\n$5\r\nMULTI\r\n*1\r\n$7\r\nDISCARD\r\n",
	"*1\r\n$5\r\nMULTI\r\n*1\r\n$4\r\nSAVE\r\n*1\r\n$4\r\nEXEC\r\n",
	"*1\r\n$4\r\nEXEC\r\n*1\r\n$7\r\nDISCARD\r\n",
	"MULTI\r\nSET k v\r\nINCR k\r\nEXEC\r\n",
	// Typed objects: create/read/mutate hashes and lists, WRONGTYPE
	// collisions (object command on a string key and vice versa), and
	// object commands inside transactions.
	"*4\r\n$4\r\nHSET\r\n$2\r\nhk\r\n$1\r\nf\r\n$1\r\nv\r\n*3\r\n$4\r\nHGET\r\n$2\r\nhk\r\n$1\r\nf\r\n",
	"*6\r\n$4\r\nHSET\r\n$2\r\nhk\r\n$1\r\na\r\n$1\r\n1\r\n$1\r\nb\r\n$1\r\n2\r\n*2\r\n$7\r\nHGETALL\r\n$2\r\nhk\r\n",
	"*3\r\n$4\r\nHDEL\r\n$2\r\nhk\r\n$1\r\nf\r\n*2\r\n$4\r\nHLEN\r\n$2\r\nhk\r\n",
	"*3\r\n$5\r\nLPUSH\r\n$2\r\nlk\r\n$1\r\na\r\n*3\r\n$5\r\nRPUSH\r\n$2\r\nlk\r\n$1\r\nb\r\n*4\r\n$6\r\nLRANGE\r\n$2\r\nlk\r\n$1\r\n0\r\n$2\r\n-1\r\n",
	"*2\r\n$4\r\nLPOP\r\n$2\r\nlk\r\n*2\r\n$4\r\nRPOP\r\n$2\r\nlk\r\n*2\r\n$4\r\nLLEN\r\n$2\r\nlk\r\n",
	"*3\r\n$3\r\nSET\r\n$2\r\nsk\r\n$1\r\nv\r\n*4\r\n$4\r\nHSET\r\n$2\r\nsk\r\n$1\r\nf\r\n$1\r\nv\r\n*2\r\n$3\r\nGET\r\n$2\r\nhk\r\n",
	"*4\r\n$6\r\nLRANGE\r\n$2\r\nlk\r\n$3\r\nxyz\r\n$2\r\n-1\r\n",
	"*1\r\n$5\r\nMULTI\r\n*4\r\n$4\r\nHSET\r\n$2\r\nth\r\n$1\r\nf\r\n$1\r\nv\r\n*3\r\n$5\r\nLPUSH\r\n$2\r\ntl\r\n$1\r\nx\r\n*1\r\n$4\r\nEXEC\r\n",
	"*5\r\n$4\r\nHSET\r\n$2\r\nhk\r\n$1\r\nf\r\n$1\r\nv\r\n$4\r\nodd!\r\n",
	// Introspection and the registry's trivial commands.
	"*1\r\n$7\r\nCOMMAND\r\n",
	"*2\r\n$7\r\nCOMMAND\r\n$5\r\nCOUNT\r\n",
	"*3\r\n$7\r\nCOMMAND\r\n$4\r\nINFO\r\n$3\r\nget\r\n",
	"*2\r\n$7\r\nCOMMAND\r\n$5\r\nNOSUB\r\n",
	"*2\r\n$4\r\nECHO\r\n$5\r\nhello\r\n",
	"*2\r\n$4\r\nTYPE\r\n$1\r\nk\r\n*2\r\n$6\r\nGETDEL\r\n$1\r\nk\r\n",
	"*2\r\n$4\r\nINFO\r\n$12\r\ncommandstats\r\n",
	// Empty command name (a $0 bulk must not panic the dispatcher).
	"*1\r\n$0\r\n\r\n",
	// Command and subcommand names carrying CRLF: the unknown-command /
	// unknown-subcommand error must not echo them raw, or the reply line
	// splits and the stream desynchronizes (errorBody pins the fix).
	"*1\r\n$7\r\nBAD\r\nXY\r\n",
	"*2\r\n$7\r\nCOMMAND\r\n$6\r\nNO\r\nPE\r\n",
	// Empty multibulks: each read returns none, and the reads terminate.
	"*0\r\n*0\r\n*-1\r\n*0\r\nPING\r\n",
	// Truncated at every interesting boundary.
	"*2\r\n$3\r\nGE",
	"*2\r\n$3\r\n",
	"*2\r\n",
	"*",
	"$",
	// Oversized and hostile headers.
	"*1048577\r\n",
	"*1048576\r\n",
	"*99999999999999999999\r\n",
	"*2\r\n$67108865\r\n",
	"*2\r\n$99999999999\r\n",
	"*-2\r\n",
	"*2\r\n$-1\r\n",
	// Malformed framing.
	"*abc\r\n",
	"*2\r\n:5\r\n",
	"*1\r\n$3\r\nabcde\r\n",
	"*1\r\n$5\r\nab\r\n",
	"PING\n",
	"*1\n$4\nPING\n",
	"\r\n",
	"\x00\xff\xfe*1\r\n",
	strings.Repeat("a", 70000) + "\r\n", // line longer than the 64K buffer
}

func FuzzReadCommand(f *testing.F) {
	for _, s := range fuzzSeedCommands {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := newRespReader(src)
		unread := func() int { return src.Len() + r.d.Reader().Buffered() }
		for i := 0; i < 64; i++ {
			before := unread()
			args, err := r.ReadCommand()
			if err != nil {
				// Errors must be clean: EOFs or protocol errors only.
				var pe resp.Error
				if !errors.As(err, &pe) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				return
			}
			// The contract handleConn relies on: every argument within the
			// advertised bounds, and a command with none (*0, *-1, a blank
			// inline line) consumed its bytes, so skipping it moves on.
			if len(args) == 0 && unread() >= before {
				t.Fatal("ReadCommand returned an empty command and consumed nothing")
			}
			if len(args) > resp.MaxArgs {
				t.Fatalf("ReadCommand returned %d args (max %d)", len(args), resp.MaxArgs)
			}
			for _, a := range args {
				if int64(len(a)) > resp.MaxBulkLen {
					t.Fatalf("ReadCommand returned a %d-byte bulk (max %d)", len(a), resp.MaxBulkLen)
				}
			}
		}
	})
}

// fuzzServer is the process-wide server FuzzDispatch drives: one volatile
// heap shared by every fuzz iteration (building a heap per input would
// dominate the fuzzing budget). The dispatch pipeline is concurrency-safe,
// but handles are not, so iterations serialize on mu.
var fuzzServer struct {
	once sync.Once
	mu   sync.Mutex
	srv  *Server
	hd   alloc.Handle
}

// FuzzDispatch feeds arbitrary byte streams through the real parser AND the
// real dispatch pipeline (registry lookup, arity validation, KeySpec
// locking, MULTI/EXEC queueing) against a live store, asserting the server
// side of the protocol contract: every dispatched command produces exactly
// one well-formed RESP reply — decodable by the client-side reader, no
// panic, no torn output — no matter how hostile the input.
func FuzzDispatch(f *testing.F) {
	for _, s := range fuzzSeedCommands {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input: multi-megabyte bulks only exercise the allocator, slowly")
		}
		fuzzServer.once.Do(func() {
			h, _, err := ralloc.Open("", ralloc.Config{
				SBRegion: 64 << 20,
				Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
			})
			if err != nil {
				t.Fatal(err)
			}
			a := h.AsAllocator()
			st, root := kvstore.Open(a, a.NewHandle(), 1024)
			h.SetRoot(0, root)
			fuzzServer.srv = New(a, st, Config{})
			fuzzServer.hd = a.NewHandle()
		})
		fuzzServer.mu.Lock()
		defer fuzzServer.mu.Unlock()

		var out bytes.Buffer
		w := newRespWriter(&out)
		ctx := &Ctx{s: fuzzServer.srv, hd: fuzzServer.hd, w: w, cs: &connState{}}
		r := newRespReader(bytes.NewReader(data))
		replies := 0
		for i := 0; i < 64; i++ {
			args, err := r.ReadCommand()
			if err != nil {
				break
			}
			if len(args) == 0 { // skipped, as handleConn does
				continue
			}
			quit := fuzzServer.srv.dispatch(ctx, args)
			scribble(args) // the reader's next command overwrites them: nothing may still look
			replies++
			if quit {
				break
			}
		}
		if err := w.flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		br := bufio.NewReader(bytes.NewReader(out.Bytes()))
		for i := 0; i < replies; i++ {
			if _, err := resp.ReadReply(br); err != nil {
				t.Fatalf("reply %d/%d is not well-formed RESP: %v\noutput: %q", i, replies, err, out.Bytes())
			}
		}
		if rest, _ := io.ReadAll(br); len(rest) != 0 {
			t.Fatalf("%d bytes of trailing garbage after %d replies: %q", len(rest), replies, rest)
		}
	})
}

// TestCommandSizeCap: a command whose bulks cumulatively exceed
// resp.MaxCommandBytes fails with a protocol error when the offending bulk's
// header is parsed, before its buffer is allocated. The cap is lowered for
// the test so it doesn't have to stream real gigabytes.
func TestCommandSizeCap(t *testing.T) {
	old := resp.MaxCommandBytes
	resp.MaxCommandBytes = 1 << 10
	defer func() { resp.MaxCommandBytes = old }()

	var b bytes.Buffer
	b.WriteString("*5\r\n")
	chunk := strings.Repeat("x", 300)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(chunk), chunk)
	}
	_, err := newRespReader(bytes.NewReader(b.Bytes())).ReadCommand()
	var pe resp.Error
	if !errors.As(err, &pe) || !strings.Contains(string(pe), "too large") {
		t.Fatalf("oversized command returned %v, want 'command too large' protocol error", err)
	}

	// A normal command under the real cap is untouched.
	resp.MaxCommandBytes = old
	args, err := newRespReader(strings.NewReader("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n")).ReadCommand()
	if err != nil || len(args) != 3 {
		t.Fatalf("normal command = %v, %v", args, err)
	}
}
