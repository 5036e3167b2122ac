// Networked persistent KV quickstart: start the RESP server over a
// file-backed recoverable heap, talk to it through the pipelining client,
// checkpoint, and shut down cleanly. Run it twice — the data (and the visit
// counter) survive the restart:
//
//	go run ./examples/server     # first run: creates the store
//	go run ./examples/server     # second run: reopens it, counter increments
//
// While it is running you can also connect with any RESP client
// (e.g. redis-cli -s /tmp/ralloc-example-server.sock).
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/pmem"
	"repro/internal/ralloc"
	"repro/internal/server"
)

func main() {
	heapPath := filepath.Join(os.TempDir(), "ralloc-example-server.heap")
	sock := filepath.Join(os.TempDir(), "ralloc-example-server.sock")

	// 1. Open (or recover) the persistent heap and the store inside it —
	// the same routine ralloc-serve uses, with one shard. The region runs
	// ModeFast like the server's: the heap is the file, mapped, and what a
	// kill leaves is every write made so far.
	clus, err := cluster.Open(heapPath, cluster.Config{
		Shards:  1,
		Ralloc:  ralloc.Config{SBRegion: 64 << 20, Pmem: pmem.Config{Mode: pmem.ModeFast}},
		Buckets: 1024,
		Bound:   32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	clus.Report(os.Stdout, 1024, 32)

	// 2. Serve it on a unix socket. SAVE snapshots the region online, to a
	// backup beside the heap file.
	sh := clus.Shards[0]
	srv := server.NewSharded([]server.ShardBackend{
		server.RegionBackend(sh.Alloc, sh.Store, sh.Heap.Region(), sh.Path, false),
	}, server.Config{})
	os.Remove(sock)
	l, err := net.Listen("unix", sock)
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)

	// 3. Talk to it like any client would.
	c, err := server.Dial("unix", sock)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Set("greeting", "hello over the wire"); err != nil {
		log.Fatal(err)
	}
	if v, ok, _ := c.Get("greeting"); ok {
		fmt.Printf("GET greeting -> %q\n", v)
	}
	visits, err := c.Do("INCR", "visits")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("INCR visits -> %d (persists across runs)\n", visits.Int)

	// A pipelined burst: 100 SETs, one round trip.
	for i := 0; i < 100; i++ {
		c.Send("SET", fmt.Sprintf("burst-%03d", i), "x")
	}
	c.Flush()
	for i := 0; i < 100; i++ {
		if _, err := c.Recv(); err != nil {
			log.Fatal(err)
		}
	}
	n, _ := c.DBSize()
	fmt.Printf("DBSIZE -> %d records\n", n)

	// 4. Back up (a kill -9 loses nothing either way; the backup is for a
	// power failure), then drain and close.
	if rp, err := c.Do("SAVE"); err != nil || rp.Str != "OK" {
		log.Fatalf("SAVE: %+v %v", rp, err)
	}
	fmt.Printf("backed up to %s.save\n", heapPath)
	c.Close()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		log.Print(err)
	}
	os.Remove(sock)
	if err := clus.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean shutdown; heap synced at %s\n", heapPath)
}
