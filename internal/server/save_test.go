package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/repl"
)

// saveCrash is the panic a row of TestSaveFailureLeavesNoTrace injects.
type saveCrash struct{}

// TestSaveFailureLeavesNoTrace kills one shard's checkpoint every way it can
// die — a SnapshotHook panic in each phase, or an error from CheckpointOnline
// itself — at the first and at the last shard, with and without replication.
// In every case no temp image is left, the next SAVE succeeds (every snapshot
// slot and barrier was released), a shard's saves counter moves exactly when
// its image was published, and a replicated SAVE stamps one (id, offset)
// into every image.
func TestSaveFailureLeavesNoTrace(t *testing.T) {
	const n = 2
	for _, replicated := range []bool{false, true} {
		for _, failing := range []int{0, n - 1} {
			for _, kind := range []string{"copy", "delta", "fence", "rename", "error"} {
				t.Run(fmt.Sprintf("repl=%v/shard%d/%s", replicated, failing, kind), func(t *testing.T) {
					saveFailureRow(t, n, replicated, failing, kind)
				})
			}
		}
	}
}

func saveFailureRow(t *testing.T, n int, replicated bool, failing int, kind string) {
	var armed atomic.Bool
	cfg := Config{}
	if replicated {
		cfg.ReplBacklogBytes = 1 << 20
	}
	e := startShardedSized(t, n, 4<<20, cfg, true, func(shard int) func(pmem.SnapshotPhase) {
		if shard != failing {
			return nil
		}
		return func(p pmem.SnapshotPhase) {
			if armed.Load() && p.String() == kind {
				panic(saveCrash{})
			}
		}
	})
	errDisk := errors.New("disk full")
	if kind == "error" {
		sh := e.srv.shards[failing]
		online := sh.be.CheckpointOnline
		sh.be.CheckpointOnline = func(fence func(cut func() error) error) (CheckpointStats, error) {
			if armed.Load() {
				return CheckpointStats{}, errDisk
			}
			return online(fence)
		}
	}
	c := e.dial(t)
	write := func(round string) {
		t.Helper()
		for i := 0; i < 64; i++ {
			if err := c.Set(fmt.Sprintf("%s-%d", round, i), round); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a")
	if err := e.srv.Save(); err != nil {
		t.Fatal(err)
	}
	before := make([]os.FileInfo, n)
	for i, p := range e.paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = fi
	}

	write("b")
	armed.Store(true)
	var err error
	panicked := func() (p bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(saveCrash); !ok {
					panic(r)
				}
				p = true
			}
		}()
		err = e.srv.Save()
		return false
	}()
	armed.Store(false)
	if kind == "error" && (panicked || !errors.Is(err, errDisk)) {
		t.Fatalf("SAVE = %v (panicked %v), want %v", err, panicked, errDisk)
	}
	if kind != "error" && !panicked {
		t.Fatalf("SAVE did not panic at %s (err %v)", kind, err)
	}
	assertNoTemp(t, e)
	// Unreplicated, the shards before the failing one published; replicated,
	// the group publishes innermost first, so only a rename failure leaves
	// the shards after the failing one published.
	for j, p := range e.paths {
		want := j < failing
		if replicated {
			want = kind == "rename" && j > failing
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if published := !os.SameFile(before[j], fi); published != want {
			t.Errorf("shard %d: published %v, want %v", j, published, want)
		}
		exp := uint64(1)
		if want {
			exp++
		}
		if got := e.srv.shards[j].saves.Load(); got != exp {
			t.Errorf("shard %d: saves = %d, want %d", j, got, exp)
		}
	}
	if got := e.srv.saves.Load(); got != 1 {
		t.Errorf("server saves = %d after a failed SAVE, want 1", got)
	}

	write("c")
	if err := e.srv.Save(); err != nil {
		t.Fatalf("SAVE after the failure: %v", err)
	}
	assertNoTemp(t, e)
	var id0, off0 uint64
	for j, p := range e.paths {
		id, off, err := pmem.ReadImageMeta(p)
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 {
			id0, off0 = id, off
		}
		if replicated && (id == 0 || id != id0 || off != off0) {
			t.Errorf("shard %d image carries (%d, %d), shard 0's (%d, %d)", j, id, off, id0, off0)
		}
	}
}

func assertNoTemp(t *testing.T, e *shardedEnv) {
	t.Helper()
	if tmp, _ := filepath.Glob(filepath.Join(filepath.Dir(e.paths[0]), "*.tmp")); len(tmp) != 0 {
		t.Fatalf("temp images left behind: %v", tmp)
	}
}

// TestSaveDuringFullSyncs runs client SAVEs against repeated 2-shard full
// resyncs under write traffic. A full resync holds saveMu from its SAVE
// until it has opened every image, so no other SAVE can publish in between
// and hand the replica images of two different cuts ("diverges"). The first
// few resyncs force that interleaving: opening shard 1's image starts a SAVE
// and gives it time to publish first.
func TestSaveDuringFullSyncs(t *testing.T) {
	e := startShardedSized(t, 2, 4<<20, Config{ReplBacklogBytes: 1 << 20}, true, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(what string, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(i); err != nil {
					t.Errorf("%s: %v", what, err)
					return
				}
			}
		}()
	}
	c := e.dial(t)
	loop("SET", func(i int) error { return c.Set(fmt.Sprintf("k%d", i%512), "v") })
	loop("SAVE", func(int) error { return e.srv.Save() })

	var interpose atomic.Int32
	interpose.Store(3)
	sh := e.srv.shards[1]
	open := sh.be.OpenCheckpoint
	sh.be.OpenCheckpoint = func() (*CheckpointImage, error) {
		if interpose.Add(-1) >= 0 {
			saved := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(saved)
				if err := e.srv.Save(); err != nil {
					t.Errorf("interposed SAVE: %v", err)
				}
			}()
			select {
			case <-saved:
			case <-time.After(200 * time.Millisecond):
			}
		}
		return open()
	}

	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "r0.heap"), filepath.Join(dir, "r1.heap")}
	for i := 0; i < 12; i++ {
		if _, _, _, err := repl.Sync(e.sock, paths, 0, 0); err != nil {
			t.Errorf("full sync %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
