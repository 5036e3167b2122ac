// Shared heap across processes (§4.5.2): several mutually untrusting
// "processes" share one persistent heap through a protected library; one of
// them crashes mid-flight. The manager — notified of the death — runs a
// blocking, stop-the-world collection in a quiescent interval. The crashed
// process's leaked blocks (its thread caches and unattached allocations)
// are reclaimed while the survivors' caches and structures come through
// untouched, and execution continues without a full-system restart.
//
//	go run ./examples/shared-processes
package main

import (
	"fmt"
	"log"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

func main() {
	heap, _, err := ralloc.Open("", ralloc.Config{
		SBRegion: 128 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeCrashSim},
	})
	if err != nil {
		log.Fatal(err)
	}
	a := heap.AsAllocator()
	mgr := heap.NewManager()

	// Process "alice" owns a persistent KV store.
	alice := mgr.Spawn()
	hdA := alice.NewHandle()
	store, root := kvstore.Open(a, hdA, 1024)
	for i := 0; i < 5000; i++ {
		if !store.SetBytes(hdA, []byte(fmt.Sprintf("alice-%04d", i)), []byte("survives")) {
			log.Fatal("out of memory")
		}
	}
	heap.SetRoot(0, root)
	fmt.Printf("alice: stored %d records\n", store.Len())

	// Process "bob" does a burst of allocation work and dies mid-flight.
	bob := mgr.Spawn()
	hdB := bob.NewHandle()
	for i := 0; i < 20000; i++ {
		hdB.Malloc(64) // allocated, never attached anywhere
	}
	used := heap.SBUsed()
	fmt.Printf("bob: allocated 20000 blocks, heap used = %d KB\n", used/1024)
	mgr.Kill(bob)
	fmt.Printf("bob crashed. manager notified: crashedSince=%v, live processes=%d\n",
		mgr.CrashedSinceCollection(), mgr.LiveProcesses())

	// Quiescent interval: alice pauses; the manager collects.
	heap.GetRoot(0, store.Filter())
	stats, err := mgr.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stop-the-world collection: %d blocks reachable or pinned, %d superblocks freed, %v\n",
		stats.ReachableBlocks, stats.FreeSuperblocks, stats.Duration)

	// Alice continues without interruption — same handle, same cache.
	for i := 0; i < 1000; i++ {
		if !store.SetBytes(hdA, []byte(fmt.Sprintf("alice-post-%04d", i)), []byte("still here")) {
			log.Fatal("out of memory")
		}
	}
	if v, ok, _ := store.GetBytes([]byte("alice-0000")); !ok || string(v) != "survives" {
		log.Fatal("alice's data damaged")
	}

	// A new process reuses bob's reclaimed memory: the heap did not grow.
	carol := mgr.Spawn()
	hdC := carol.NewHandle()
	for i := 0; i < 20000; i++ {
		if hdC.Malloc(64) == 0 {
			log.Fatal("leak not reclaimed")
		}
	}
	fmt.Printf("carol: reallocated 20000 blocks; heap used = %d KB (unchanged: %v)\n",
		heap.SBUsed()/1024, heap.SBUsed() <= used)
	fmt.Printf("alice's store intact with %d records\n", store.Len())
}
