package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// The map's count word (Len, DBSIZE) is bumped after the link swing that
// commits an insert or a removal, so a crash between the two leaves it off
// by one — and unlike the objects' counters nothing repaired it before the
// attach recounted it. The sampled k-lists of the other sweeps step
// over those windows; this one crashes at *every* store of a script that
// inserts, replaces and removes records through every path that moves the
// count: SET, SET-replace, DEL, HSET (create / extend), HDEL of a last
// field, RPUSH (create / extend), LPOP down to empty.

type lenCrash struct{}

// walkedRecords counts the records actually reachable in the map, expired
// ones included — what Len must equal.
func walkedRecords(s *Store) int {
	n := 0
	s.m.Range(0, s.m.Buckets(), func(dstruct.Record) bool { n++; return true })
	return n
}

// assertLenMatchesWalk is the check the crash sweeps share: after recovery
// and attach, the count word agrees with the chains.
func assertLenMatchesWalk(t *testing.T, s *Store, k int) {
	t.Helper()
	if walked := walkedRecords(s); s.Len() != walked {
		t.Fatalf("k=%d: walk sees %d records, Len()=%d", k, walked, s.Len())
	}
}

// lenCrashAt runs the script on a fresh store, crashing at the k-th
// persistent store. It returns the crashed heap, the number of keys
// acknowledged, the number there would be had the in-flight operation
// completed (-1 when none was in flight), and whether the script finished
// before the hook fired.
func lenCrashAt(t *testing.T, k int) (h *ralloc.Heap, acked, pending int, done bool) {
	t.Helper()
	countdown, armed := 0, false
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    2 << 20,
		GrowthChunk: 1 << 20,
		Pmem: pmem.Config{
			Mode: pmem.ModeCrashSim,
			StoreHook: func() {
				if armed {
					if countdown--; countdown == 0 {
						panic(lenCrash{})
					}
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := Open(a, hd, 16) // few buckets: chains with predecessors
	h.SetRoot(0, root)

	pending = -1
	done = func() bool {
		defer func() {
			armed = false
			if r := recover(); r != nil {
				if _, ok := r.(lenCrash); !ok {
					panic(r)
				}
			}
		}()
		countdown, armed = k, true
		// step runs one operation that moves the key count by delta.
		step := func(delta int, op func() error) {
			pending = acked + delta
			if err := op(); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			acked, pending = pending, -1
		}
		set := func(key string) func() error {
			return func() error {
				if !s.SetBytes(hd, []byte(key), []byte("v-"+key)) {
					return ErrNoMemory
				}
				return nil
			}
		}
		for i := 0; i < 20; i++ {
			step(+1, set(fmt.Sprintf("s%02d", i)))
		}
		for i := 0; i < 20; i += 5 {
			step(0, set(fmt.Sprintf("s%02d", i))) // replace
		}
		for i := 0; i < 7; i++ {
			step(-1, func() error { s.Delete(hd, []byte(fmt.Sprintf("s%02d", i*3))); return nil })
		}
		hset := func(f string) func() error {
			return func() error { _, err := s.HSet(hd, []byte("hash"), []byte(f), []byte("x")); return err }
		}
		step(+1, hset("f1"))
		step(0, hset("f2"))
		step(0, func() error { _, err := s.HDel(hd, []byte("hash"), []byte("f1")); return err })
		step(-1, func() error { _, err := s.HDel(hd, []byte("hash"), []byte("f2")); return err })
		rpush := func() error { _, err := s.RPush(hd, []byte("list"), []byte("e")); return err }
		lpop := func() error { _, _, err := s.LPop(hd, []byte("list")); return err }
		step(+1, rpush)
		step(0, rpush)
		step(0, lpop)
		step(-1, lpop)
		step(+1, hset("f1")) // the name is free again
		step(0, set("hash")) // SET over a live object frees its graph
		step(-1, func() error { s.Delete(hd, []byte("hash")); return nil })
		return true
	}()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, acked, pending, done
}

func TestHashMapLenSurvivesEveryCrashPoint(t *testing.T) {
	for _, mode := range restartModes {
		for k := 1; ; k++ {
			h, acked, pending, done := lenCrashAt(t, k)
			a := h.AsAllocator()
			s := mode.restart(t, h, 0)
			assertLenMatchesWalk(t, s, k)
			if n := s.Len(); n != acked && n != pending {
				t.Fatalf("%v k=%d: %d records recovered, %d acknowledged, in-flight op would make it %d",
					mode, k, n, acked, pending)
			}
			// The count keeps tracking the chains: empty the map and it
			// must read zero, not the crash's leftover.
			s.DeleteAll(a.NewHandle())
			if s.Len() != 0 || walkedRecords(s) != 0 {
				t.Fatalf("%v k=%d: after DeleteAll Len()=%d, walk sees %d", mode, k, s.Len(), walkedRecords(s))
			}
			if _, err := h.CheckInvariants(); err != nil {
				t.Fatalf("%v k=%d: %v", mode, k, err)
			}
			if done {
				t.Logf("%v: %d crash points", mode, k-1)
				break
			}
		}
	}
}
