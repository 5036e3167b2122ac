package server

import (
	"io"
	"testing"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Dispatch benchmark: the registry pipeline (lookup → arity → KeySpec key
// extraction → ordered stripe locks → stats → handler) on the pipelined
// GET/SET hot path, command vectors prebuilt so only dispatch + execution
// are measured. The ledger row for the same path over the wire is
// benchmark/'s server.get_p16 / server.set_p16.

type benchEnv struct {
	heap *ralloc.Heap
	srv  *Server
	hd   alloc.Handle
}

func newBenchEnv(tb testing.TB, cfg Config) *benchEnv {
	tb.Helper()
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 256 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		tb.Fatal(err)
	}
	a := h.AsAllocator()
	st, root := kvstore.Open(a, a.NewHandle(), 8192)
	h.SetRoot(0, root)
	return &benchEnv{heap: h, srv: New(a, st, cfg), hd: a.NewHandle()}
}

// benchArgs is one pipelined GET/SET burst: the same 64 keys set then read.
func benchArgs() [][][]byte {
	var cmds [][][]byte
	for i := 0; i < 64; i++ {
		k := []byte("bench-key-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
		cmds = append(cmds, [][]byte{[]byte("SET"), k, []byte("bench-value-payload-00")})
		cmds = append(cmds, [][]byte{[]byte("GET"), k})
	}
	return cmds
}

func BenchmarkDispatch(b *testing.B) {
	e := newBenchEnv(b, Config{})
	cmds := benchArgs()
	w := newRespWriter(io.Discard)
	ctx := &Ctx{s: e.srv, hd: e.hd, w: w, cs: &connState{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.srv.dispatch(ctx, cmds[i%len(cmds)])
	}
	b.StopTimer()
	w.flush()
}
