package repl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/resp"
)

// The replication link's parsers read bytes from another process: a replica
// from whatever answered at the primary's address, and a primary (its ACK
// reader) from any peer that sent PSYNC. For ANY bytes they must parse or
// fail with ErrProto / ErrStreamAbort / an I/O error — no panic, and no
// allocation sized by a header alone.

func cleanStreamErr(err error) bool {
	return errors.Is(err, ErrProto) || errors.Is(err, ErrStreamAbort) ||
		err == io.EOF || err == io.ErrUnexpectedEOF
}

func FuzzReadEntry(f *testing.F) {
	for _, s := range []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"*3\r\n$8\r\nREPLCONF\r\n$3\r\nACK\r\n$2\r\n42\r\n*1\r\n$4\r\nPING\r\n",
		"-ERR server is shutting down\r\n",
		"*0\r\n", "*-1\r\n", "*131072\r\n", "*1048577\r\n", "*1\r\n$-1\r\n",
		"*1\r\n$67108865\r\n", "*2\r\n$3\r\nabcXY", "*1\n$1\na\n", "PING\r\n", "\r\n", "",
		strings.Repeat("a", 70000) + "\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := resp.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			args, raw, err := ReadEntry(br)
			if err != nil {
				if !cleanStreamErr(err) {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				return
			}
			if len(args) == 0 || len(args) > resp.MaxArgs {
				t.Fatalf("ReadEntry returned %d args", len(args))
			}
			if !bytes.Equal(raw, AppendEntry(nil, args)) {
				t.Fatalf("raw bytes %q are not the canonical encoding of %q", raw, args)
			}
		}
	})
}

func FuzzReadHandshake(f *testing.F) {
	for _, s := range []string{
		"+FULLRESYNC 00000000deadbeef 12345\r\n", "+FULLRESYNC 00000000deadbeef 12345 4\r\n",
		"+CONTINUE 999\r\n", "-ERR replica cannot serve PSYNC\r\n",
		"+FULLRESYNC zz 1\r\n", "+FULLRESYNC 1 2 1\r\n", "+FULLRESYNC 1 2 257\r\n", "+CONTINUE -1\r\n",
		"+\r\n", "\r\n", "+OK\n", "", ":5\r\n", strings.Repeat("+", 70000),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHandshake(resp.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !cleanStreamErr(err) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			return
		}
		if h.Full && (h.Shards < 1 || h.Shards > 256) {
			t.Fatalf("FULLRESYNC accepted with %d shards", h.Shards)
		}
	})
}

func FuzzReadImage(f *testing.F) {
	for _, s := range []string{
		"$4\r\nabcd\r\n$0\r\n\r\n", "$0\r\n\r\n", "$4\r\nabcd\r\n-ERR draining\r\n",
		"$4\r\nabcdXY", "$-1\r\n", "$1048577\r\n", "$99999999999999999999\r\n", "$4\r\nab",
		"*1\r\n", "\r\n", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		n, err := ReadImage(resp.NewReader(bytes.NewReader(data)), &out)
		if n != int64(out.Len()) || out.Len() > len(data) {
			t.Fatalf("ReadImage reports %d bytes, wrote %d, from %d input bytes", n, out.Len(), len(data))
		}
		if err != nil && !cleanStreamErr(err) {
			t.Fatalf("unexpected error type %T: %v", err, err)
		}
	})
}

// allocated reports the bytes fn allocates (nothing else runs in this
// package's tests meanwhile).
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestReadEntryHostilePeer: what a primary's ACK reader and a replica's link
// do with a peer that sends headers and no data. The entry decoder is the
// server's command decoder, so a 12-byte "*131072" reserves 64 slots (it
// used to reserve 131072, 3 MiB), and declared bulk bytes past the command
// budget end the stream as a protocol error before the buffer exists.
func TestReadEntryHostilePeer(t *testing.T) {
	br := resp.NewReader(strings.NewReader(""))
	if n := allocated(func() {
		br.Reset(strings.NewReader("*131072\r\n"))
		if _, _, err := ReadEntry(br); err != io.EOF {
			t.Errorf("header-only entry: %v, want EOF", err)
		}
	}); n > 16<<10 {
		t.Fatalf("a bare *131072 header allocated %d bytes", n)
	}

	old := resp.MaxCommandBytes
	resp.MaxCommandBytes = 1 << 10
	defer func() { resp.MaxCommandBytes = old }()
	wire := "*3\r\n$600\r\n" + strings.Repeat("x", 600) + fmt.Sprintf("\r\n$%d\r\n", resp.MaxBulkLen)
	if n := allocated(func() {
		br.Reset(strings.NewReader(wire))
		if _, _, err := ReadEntry(br); !errors.Is(err, ErrProto) || !strings.Contains(err.Error(), "too large") {
			t.Errorf("over-budget entry: %v, want ErrProto 'command too large'", err)
		}
	}); n > 16<<10 {
		t.Fatalf("an over-budget bulk header allocated %d bytes", n)
	}
}

// image is a loadable region image stamped with the stream position (id, off).
func image(t *testing.T, id, off uint64) []byte {
	t.Helper()
	r := pmem.NewRegion(64<<10, pmem.Config{Mode: pmem.ModeFast})
	r.SetReplMeta(id, off)
	var b bytes.Buffer
	if err := r.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBootstrapDiesMidShard: a two-shard download whose connection dies
// inside the second image must not publish the first. Shard 0's header is
// what a restart resumes from, so afterwards it is absent (fresh node) or
// still carries the old position (re-bootstrap) — never the new one — and no
// temp file remains.
func TestBootstrapDiesMidShard(t *testing.T) {
	const oldID, oldOff, newID, newOff = 0xaaaa, 100, 0xbbbb, 9000
	newImg := image(t, newID, newOff)
	dir := t.TempDir()
	sock := filepath.Join(dir, "primary.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := ReadEntry(resp.NewReader(conn)); err == nil {
				WriteFullResync(conn, newID, newOff, 2)
				CopyImageChunksAbort(conn, bytes.NewReader(newImg), nil)
				fmt.Fprintf(conn, "$%d\r\n", len(newImg))
				conn.Write(newImg[:len(newImg)/2]) // dies inside image 1
			}
			conn.Close()
		}
	}()

	for _, tc := range []struct {
		name     string
		existing bool
	}{{"fresh", false}, {"re-bootstrap", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(dir, tc.name+".heap")
			paths := []string{base, base + ".shard1"}
			var id, off uint64
			if tc.existing {
				id, off = oldID, oldOff
				for _, p := range paths {
					if err := os.WriteFile(p, image(t, oldID, oldOff), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, _, _, err := Sync(sock, paths, id, off); err == nil {
				t.Fatal("Sync succeeded against a primary that died mid-image")
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			gotID, gotOff, err := pmem.ReadImageMeta(base)
			switch {
			case !tc.existing && !os.IsNotExist(err):
				t.Fatalf("fresh node: shard 0 image exists after a failed download (stamp %#x/%d, err %v)", gotID, gotOff, err)
			case tc.existing && (err != nil || gotID != oldID || gotOff != oldOff):
				t.Fatalf("shard 0 stamp = (%#x, %d), %v; want the old (%#x, %d)", gotID, gotOff, err, uint64(oldID), oldOff)
			}
		})
	}
}
