package ralloc

import (
	"sync"
	"testing"
)

func TestPartialCrashLeakReclaimedByCollect(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()

	alice := m.Spawn()
	bob := m.Spawn()
	hdA := alice.NewHandle()
	hdB := bob.NewHandle()

	// Alice builds a persistent structure and keeps a warm cache.
	buildList(t, h, hdA, 300, 0)
	warm := hdA.Malloc(64)
	hdA.Free(warm) // stays in Alice's cache

	// Bob allocates a pile of blocks he never attaches, then crashes.
	for i := 0; i < 4000; i++ {
		hdB.Malloc(64)
	}
	usedBefore := h.SBUsed()
	m.Kill(bob)
	if !m.CrashedSinceCollection() {
		t.Fatal("manager not notified of the crash")
	}
	if m.LiveProcesses() != 1 {
		t.Fatalf("live processes = %d, want 1", m.LiveProcesses())
	}

	// Stop-the-world collection in a quiescent interval.
	var aliceCache uint64
	for c := range hdA.cache {
		aliceCache += uint64(len(hdA.cache[c]))
	}
	h.GetRoot(0, nil)
	stats, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.CrashedSinceCollection() {
		t.Fatal("crash flag not cleared by collection")
	}
	// Reachable = 300 list nodes + everything pinned in Alice's caches.
	if stats.ReachableBlocks != 300+aliceCache {
		t.Fatalf("reachable = %d, want %d", stats.ReachableBlocks, 300+aliceCache)
	}

	// Alice continues unharmed — including her pre-collection cache.
	if got := hdA.Malloc(64); got != warm {
		t.Fatalf("Alice's cache lost: got %#x, want %#x", got, warm)
	}
	if len(walkList(h, 0)) != 300 {
		t.Fatal("Alice's structure damaged by collection")
	}

	// Bob's leaked blocks are reusable without growing the region.
	carol := m.Spawn()
	hdC := carol.NewHandle()
	for i := 0; i < 4000; i++ {
		if hdC.Malloc(64) == 0 {
			t.Fatal("OOM: leak not reclaimed")
		}
	}
	if h.SBUsed() > usedBefore {
		t.Fatalf("region grew from %d to %d", usedBefore, h.SBUsed())
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadProcessHandlePanics(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	p := m.Spawn()
	hd := p.NewHandle()
	m.Kill(p)
	defer func() {
		if recover() == nil {
			t.Fatal("dead process's handle must panic")
		}
	}()
	hd.Malloc(64)
}

func TestSpawnOnDeadProcessPanics(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	p := m.Spawn()
	m.Kill(p)
	defer func() {
		if recover() == nil {
			t.Fatal("NewHandle on dead process must panic")
		}
	}()
	p.NewHandle()
}

func TestCollectPinsCachesAcrossClasses(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	p := m.Spawn()
	hd := p.NewHandle()
	// Populate caches in several classes. Each first Malloc recharges the
	// cache with a whole superblock's worth of blocks, all of which must
	// be pinned.
	var cached []uint64
	for _, size := range []uint64{8, 64, 400, 4096} {
		b := hd.Malloc(size)
		hd.Free(b)
		cached = append(cached, b)
	}
	var expected uint64
	for c := range hd.cache {
		expected += uint64(len(hd.cache[c]))
	}
	stats, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != expected {
		t.Fatalf("pinned = %d, want %d (every cached block)", stats.ReachableBlocks, expected)
	}
	// Every cached block still pops back exactly once.
	for i := len(cached) - 1; i >= 0; i-- {
		sizes := []uint64{8, 64, 400, 4096}
		if got := hd.Malloc(sizes[i]); got != cached[i] {
			t.Fatalf("cache for size %d lost: %#x vs %#x", sizes[i], got, cached[i])
		}
	}
}

func TestCollectWithNoCrashIsHarmless(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	p := m.Spawn()
	hd := p.NewHandle()
	buildList(t, h, hd, 100, 0)
	h.GetRoot(0, nil)
	if _, err := m.Collect(); err != nil {
		t.Fatal(err)
	}
	if len(walkList(h, 0)) != 100 {
		t.Fatal("structure damaged by no-op collection")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedPartialCrashes(t *testing.T) {
	// Crash-and-collect in a loop: memory must not ratchet upward.
	h := crashHeap(t, 0)
	m := h.NewManager()
	owner := m.Spawn()
	hdO := owner.NewHandle()
	buildList(t, h, hdO, 200, 0)
	h.GetRoot(0, nil)
	if _, err := m.Collect(); err != nil { // establish baseline usage
		t.Fatal(err)
	}
	base := h.SBUsed()
	for round := 0; round < 5; round++ {
		p := m.Spawn()
		hd := p.NewHandle()
		for i := 0; i < 2000; i++ {
			hd.Malloc(64)
		}
		m.Kill(p)
		h.GetRoot(0, nil)
		if _, err := m.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if h.SBUsed() > base+h.cfg.GrowthChunk {
		t.Fatalf("memory ratcheted: %d -> %d", base, h.SBUsed())
	}
	if len(walkList(h, 0)) != 200 {
		t.Fatal("owner's structure damaged")
	}
}

func TestConcurrentSharersThenCollect(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	const procs = 4
	var wg sync.WaitGroup
	victims := make([]*Process, procs)
	for i := 0; i < procs; i++ {
		victims[i] = m.Spawn()
	}
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(p *Process, seed int) {
			defer wg.Done()
			hd := p.NewHandle()
			for j := 0; j < 3000; j++ {
				off := hd.Malloc(64)
				if off == 0 {
					t.Error("OOM")
					return
				}
				if j%2 == 0 {
					hd.Free(off)
				}
			}
		}(victims[i], i)
	}
	wg.Wait()
	// Kill half, quiesce, collect.
	m.Kill(victims[0])
	m.Kill(victims[1])
	stats, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	_ = stats
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Survivors keep allocating.
	hd := victims[2].NewHandle()
	for i := 0; i < 1000; i++ {
		if hd.Malloc(64) == 0 {
			t.Fatal("OOM after collection")
		}
	}
}

// TestCollectReportsPhaseSplit: Collect is the recovery engine with caches
// pinned, so it reports the same trace/sweep decomposition Recover does.
func TestCollectReportsPhaseSplit(t *testing.T) {
	h := crashHeap(t, 0)
	m := h.NewManager()
	hd := m.Spawn().NewHandle()
	buildList(t, h, hd, 2000, 0)
	h.GetRoot(0, nil)
	stats, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TraceTime <= 0 || stats.SweepTime <= 0 {
		t.Fatalf("phase times not measured: trace %v sweep %v", stats.TraceTime, stats.SweepTime)
	}
	if stats.TraceTime+stats.SweepTime > stats.Duration {
		t.Fatalf("trace %v + sweep %v exceed duration %v", stats.TraceTime, stats.SweepTime, stats.Duration)
	}
}
