// Persistent key-value store: a memcached-like store whose contents survive
// process restarts in the heap's file, mapped as ralloc-serve maps its heap,
// including restarts after a crash (dirty heap → recovery).
//
//	go run ./examples/persistent-kv            # first run: creates the store
//	go run ./examples/persistent-kv            # second run: reopens it
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

const rootKV = 0

func main() {
	path := filepath.Join(os.TempDir(), "ralloc-example-kv.heap")
	cfg := ralloc.Config{
		SBRegion: 64 << 20,
		Pmem:     pmem.Config{Mode: pmem.ModeFast},
	}
	heap, dirty, err := ralloc.Open(path, cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := heap.AsAllocator()
	hd := heap.NewHandle()

	var store *kvstore.Store
	root := heap.GetRoot(rootKV, nil)
	switch {
	case root == 0:
		// Fresh heap: create the store and register it.
		store, root = kvstore.Open(a, hd, 1024)
		heap.SetRoot(rootKV, root)
		fmt.Println("created a new store")
	case dirty:
		// Crashed last time: the attach rides recovery's one trace.
		at := kvstore.BeginAttach(a, root, 0)
		heap.GetRoot(rootKV, at.Filter())
		stats, err := heap.Recover()
		if err != nil {
			log.Fatal(err)
		}
		store = at.Finish()
		fmt.Printf("recovered store after crash: %d reachable blocks, %v\n",
			stats.ReachableBlocks, stats.Duration)
	default:
		store = kvstore.Attach(a, root)
		fmt.Println("reopened store after clean shutdown")
	}

	// Show what survived from previous runs, then add to it.
	if v, ok, _ := store.GetBytes([]byte("runs")); ok {
		fmt.Printf("store remembers: runs=%s, greeting=%q\n", v, firstOr(store, "greeting"))
	}
	runs := 0
	if v, ok, _ := store.GetBytes([]byte("runs")); ok {
		fmt.Sscanf(string(v), "%d", &runs)
	}
	runs++
	if !store.SetBytes(hd, []byte("runs"), []byte(fmt.Sprintf("%d", runs))) ||
		!store.SetBytes(hd, []byte("greeting"), []byte("hello from persistent memory")) {
		log.Fatal("out of memory")
	}
	fmt.Printf("this is run #%d; store holds %d records\n", runs, store.Len())

	// Clean shutdown syncs the mapped heap to its file, marked clean.
	if err := heap.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved to %s\n", path)
}

func firstOr(s *kvstore.Store, key string) string {
	v, _, _ := s.GetBytes([]byte(key))
	return string(v)
}
