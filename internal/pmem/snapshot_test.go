package pmem

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// quiesceFence is the test stand-in for the server's execMu: mutators hold
// the read side per operation, the snapshot's cut runs under the write side.
type quiesceFence struct{ mu sync.RWMutex }

func (q *quiesceFence) fence(cut func() error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return cut()
}

// TestOnlineSnapshotExactAtCutover runs writers while SaveFileOnline
// streams, and asserts the saved file equals the volatile image exactly as
// it stood inside the cut-over fence — the online snapshot's whole claim.
// Both modes: ModeFast is what ralloc-serve runs (no shadow to fall back on,
// the write barrier alone decides what the image holds), ModeCrashSim is the
// test medium.
func TestOnlineSnapshotExactAtCutover(t *testing.T) {
	for _, mode := range []Mode{ModeFast, ModeCrashSim} {
		t.Run(mode.String(), func(t *testing.T) { onlineSnapshotExactAtCutover(t, mode) })
	}
}

func onlineSnapshotExactAtCutover(t *testing.T, mode Mode) {
	const size = 1 << 20 // 16384 lines
	// The Region contract forbids byte and word accessors on one contended
	// location, so the region is cut into 4-line groups: any goroutine's
	// word ops land in a group's first two lines, and the last two take the
	// byte writes of the one goroutine that owns the group (group%4) —
	// unaligned, and straddling the line between them.
	const group, groups, payload = 4 * LineBytes, size / (4 * LineBytes), 24
	var ops atomic.Uint64
	// Halfway through the copy, wait out a thousand more operations: on a
	// busy two-core box the whole snapshot otherwise fits between two of the
	// writers' time slices now and then, and Recopied is 0 by luck.
	r := NewRegion(size, Config{Mode: mode, SnapshotHook: func(p SnapshotPhase) {
		for n := ops.Load(); p == SnapCopy && ops.Load() < n+1000; {
			runtime.Gosched()
		}
	}})
	var q quiesceFence
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q.mu.RLock()
				off := rng.Uint64()%groups*group + rng.Uint64()%(group/2/WordBytes)*WordBytes
				switch rng.Intn(4) {
				case 0:
					r.Store(off, rng.Uint64())
				case 1:
					r.Add(off, 1)
				case 2:
					r.CAS(off, r.Load(off), rng.Uint64())
				default:
					var b [payload]byte
					rng.Read(b[:])
					own := (rng.Uint64()%(groups/4)*4 + uint64(g)) * group
					r.WriteBytes(own+group/2+rng.Uint64()%(group/2-payload+1), b[:])
				}
				q.mu.RUnlock()
				ops.Add(1)
			}
		}(g)
	}
	// Save only once the writers are demonstrably running, so the copy
	// phases genuinely race stores (otherwise Recopied can be 0 by luck).
	for ops.Load() < 10_000 {
	}

	path := filepath.Join(t.TempDir(), "online.img")
	var want []uint64
	st, err := r.SaveFileOnline(path, func(cut func() error) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if err := cut(); err != nil {
			return err
		}
		// Inside the fence, after the final delta: the file must equal
		// this exact volatile state.
		want = make([]uint64, len(r.words))
		for i := range r.words {
			want[i] = atomic.LoadUint64(&r.words[i])
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != size/LineBytes {
		t.Fatalf("Lines = %d, want %d", st.Lines, size/LineBytes)
	}
	if st.Recopied == 0 {
		t.Fatal("no lines re-copied despite concurrent writers — barrier not firing")
	}
	got, err := LoadFile(path, Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.words[i] != want[i] {
			t.Fatalf("word %d: image %#x, want %#x (cut-over state)", i, got.words[i], want[i])
		}
	}
	// The barrier must be fully disarmed: later stores cost no marking.
	if r.snap.Load() != nil {
		t.Fatal("write barrier still armed after snapshot")
	}
}

// TestWriteBarrierOrdering pins the mark-after-store contract directly: a
// store racing the delta scan is either captured by the re-read or re-marked
// for the next round, never lost.
func TestWriteBarrierMarksAllEntryPoints(t *testing.T) {
	r := NewRegion(1024, Config{})
	tr := &snapTracker{dirty: make([]uint32, 1024/LineBytes)}
	r.snap.Store(tr)
	defer r.snap.Store(nil)

	r.Store(0, 1)
	r.CAS(64, 0, 2)
	r.Add(128, 3)
	r.WriteBytes(192, []byte("abcdefgh"))
	r.Zero(256, 64)
	for i, l := range []uint64{0, 1, 2, 3, 4} {
		if atomic.LoadUint32(&tr.dirty[l]) == 0 {
			t.Fatalf("entry point %d did not mark line %d", i, l)
		}
	}
	if atomic.LoadUint32(&tr.dirty[5]) != 0 {
		t.Fatal("untouched line marked")
	}
}

// crashSentinel simulates the process dying inside a snapshot phase.
type crashSentinel struct{ phase SnapshotPhase }

// TestOnlineSnapshotPhaseCrashSweep kills (panics out of) an online snapshot
// at every phase — mid-copy, mid-delta, mid-fence, mid-rename — and asserts
// the recovery contract: the image at path is always a consistent complete
// snapshot, old or new, never torn; and a truncated temp file can never be
// mistaken for an image.
func TestOnlineSnapshotPhaseCrashSweep(t *testing.T) {
	for _, phase := range []SnapshotPhase{SnapCopy, SnapDelta, SnapFence, SnapRename} {
		t.Run(phase.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "kv.img")

			hook := func(p SnapshotPhase) {
				if p == phase {
					panic(crashSentinel{p})
				}
			}
			r := NewRegion(1<<18, Config{Mode: ModeCrashSim, SnapshotHook: hook})
			// State A: the previous checkpoint, written quiesced.
			for off := uint64(0); off < r.Size(); off += 8 {
				r.Store(off, off|1)
			}
			r.Persist()
			r.cfg.SnapshotHook = nil
			if err := r.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			r.cfg.SnapshotHook = hook

			// Move on to state B, then die mid-checkpoint at the target phase.
			for off := uint64(0); off < r.Size(); off += 8 {
				r.Store(off, off|0x8000000000000001)
			}
			var q quiesceFence
			func() {
				defer func() {
					v := recover()
					if v == nil {
						t.Fatalf("snapshot survived injected %v crash", phase)
					}
					if cs, ok := v.(crashSentinel); !ok || cs.phase != phase {
						panic(v)
					}
				}()
				r.SaveFileOnline(path, q.fence)
			}()

			// The published image must still be exactly state A.
			old, err := LoadFile(path, Config{Mode: ModeCrashSim})
			if err != nil {
				t.Fatalf("previous image unloadable after %v crash: %v", phase, err)
			}
			for off := uint64(0); off < old.Size(); off += 8 {
				if old.Load(off) != off|1 {
					t.Fatalf("word %#x torn after %v crash: %#x", off, phase, old.Load(off))
				}
			}
			// A partial temp file must be rejected, not half-loaded.
			if fi, err := os.Stat(path + ".tmp"); err == nil {
				if fi.Size() < int64(imageHeaderLen)+int64(r.Size()) {
					if _, err := LoadFile(path+".tmp", Config{Mode: ModeCrashSim}); !errors.Is(err, ErrBadImage) {
						t.Fatalf("partial temp image loaded: %v", err)
					}
				}
			}

			// The region survives its checkpointer dying: barrier disarmed,
			// and the next (uninjected) snapshot publishes state B.
			if r.snap.Load() != nil {
				t.Fatal("write barrier left armed by crashed snapshot")
			}
			r.cfg.SnapshotHook = nil
			if _, err := r.SaveFileOnline(path, q.fence); err != nil {
				t.Fatal(err)
			}
			neu, err := LoadFile(path, Config{Mode: ModeCrashSim})
			if err != nil {
				t.Fatal(err)
			}
			for off := uint64(0); off < neu.Size(); off += 8 {
				if neu.Load(off) != off|0x8000000000000001 {
					t.Fatalf("word %#x wrong after retry: %#x", off, neu.Load(off))
				}
			}
		})
	}
}

// TestOnlineSnapshotSerializes: two concurrent online saves must not
// interleave their barriers; both images must be complete and loadable.
func TestOnlineSnapshotSerializes(t *testing.T) {
	r := NewRegion(1<<16, Config{})
	dir := t.TempDir()
	var q quiesceFence
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := filepath.Join(dir, "snap"+string(rune('a'+i))+".img")
			if _, err := r.SaveFileOnline(p, q.fence); err != nil {
				t.Errorf("save %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, "snap"+string(rune('a'+i))+".img")
		if _, err := LoadFile(p, Config{}); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
	}
}

// TestOnlineSnapshotFenceMustCut: a fence that returns nil without calling
// cut fails the save, publishes nothing and leaves no temp file or armed
// barrier behind.
func TestOnlineSnapshotFenceMustCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.img")
	r := NewRegion(1<<16, Config{})
	if _, err := r.SaveFileOnline(path, func(func() error) error { return nil }); err == nil {
		t.Fatal("a save whose fence never cut succeeded")
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after the failed save (%v)", p, err)
		}
	}
	if r.snap.Load() != nil {
		t.Fatal("write barrier left armed")
	}
}

// TestOnlineSaveAllocatesLittle: an online save's write barrier is a
// demand-zero mapping, not a flag per line on the Go heap — 4 MB of garbage
// per save of a 64 MB region.
func TestOnlineSaveAllocatesLittle(t *testing.T) {
	r := NewRegion(64<<20, Config{})
	path := filepath.Join(t.TempDir(), "heap.img")
	var q quiesceFence
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.SaveFileOnline(path, q.fence); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("an online save of a 64 MB region allocated %d bytes of Go heap, want under 1 MB", n)
	}
}
