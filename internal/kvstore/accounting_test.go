package kvstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dstruct"
	"repro/internal/ralloc"
)

// Writers racing on the same key, and the reclaimer racing them, must leave
// the accounting exact: each byte and stamp count is a Delta of the very
// record a write replaced or unlinked. After quiescence and a drain,
// Stats().Bytes is the walked footprint, Stats().TTLd the walked count of
// stamped records, and Len() the live count. Each row is an interleaving
// that bookkeeping kept beside the map, outside its locks, gets wrong; such
// a wrong count heals at the key's next write, so a round is a few
// operations and its end is what is checked.
func TestBoundedAccountingUnderSameKeyRaces(t *testing.T) {
	const dead = 1 // a stamp long passed on the store's clock
	for _, tc := range []struct {
		name    string
		keys    int // writer w writes key w%keys
		reclaim bool
		op      func(s *Store, h alloc.Handle, key []byte, w, i int)
	}{
		{"dead SETEX and SET of an owned key against reclaim", 4, true, func(s *Store, h alloc.Handle, key []byte, _, i int) {
			if i%2 == 0 {
				s.SetBytesExpire(h, key, []byte("dead"), dead)
			} else {
				s.SetBytes(h, key, []byte("live"))
			}
		}},
		{"SET and DEL of a shared key", 1, false, func(s *Store, h alloc.Handle, key []byte, w, _ int) {
			if w%2 == 0 {
				s.SetBytes(h, key, []byte("value"))
			} else {
				s.Delete(h, key)
			}
		}},
		{"dead SETEX and SET of a shared key", 1, false, func(s *Store, h alloc.Handle, key []byte, w, _ int) {
			if w%2 == 0 {
				s.SetBytesExpire(h, key, []byte("dead"), dead)
			} else {
				s.SetBytes(h, key, []byte("live"))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 16 << 20, GrowthChunk: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			a := h.AsAllocator()
			s, _ := OpenBounded(a, a.NewHandle(), 64, 1<<20)
			s.SetClock(func() int64 { return 1_000_000 })
			hds := make([]alloc.Handle, 5)
			for i := range hds {
				hds[i] = a.NewHandle()
			}
			for round := 0; round < 5000; round++ {
				var wg sync.WaitGroup
				start, done := make(chan struct{}), make(chan struct{})
				if tc.reclaim {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for {
							select {
							case <-done:
								return
							default:
								s.ReclaimExpired(hds[4], 16)
							}
						}
					}()
				}
				var writers sync.WaitGroup
				for w := 0; w < 4; w++ {
					writers.Add(1)
					go func(w int) {
						defer writers.Done()
						key := []byte(fmt.Sprintf("key-%d", w%tc.keys))
						<-start
						for i := 0; i < 4; i++ {
							tc.op(s, hds[w], key, w, i)
						}
					}(w)
				}
				close(start)
				writers.Wait()
				close(done)
				wg.Wait()
				for s.ReclaimExpired(hds[4], 16) > 0 {
				}
				var bytes, stamped uint64
				live := 0
				s.m.Range(0, s.m.Buckets(), func(rec dstruct.Record) bool {
					bytes += rec.Bytes()
					if rec.ExpireAt != 0 {
						stamped++
					}
					if !s.dead(rec.ExpireAt) {
						live++
					}
					return true
				})
				if st := s.Stats(); st.Bytes != bytes || st.TTLd != stamped || s.Len() != live {
					t.Fatalf("round %d: Bytes %d, TTLd %d, Len %d; the map holds %d bytes, %d stamped, %d live",
						round, st.Bytes, st.TTLd, s.Len(), bytes, stamped, live)
				}
			}
		})
	}
}

// A bounded store's keys live in the persistent map only: the Go objects an
// attach leaves behind do not grow with the keyspace — no index holds a copy
// of each TTL'd key for the collector to mark.
func TestAttachBoundedHoldsNoPerKeyState(t *testing.T) {
	grown := func(keys int) int64 {
		h, _, err := ralloc.Open("", ralloc.Config{SBRegion: 64 << 20, GrowthChunk: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		a := h.AsAllocator()
		hd := a.NewHandle()
		s, root := OpenBounded(a, hd, keys, 1<<30)
		for i := 0; i < keys; i++ {
			if !s.SetBytesExpire(hd, []byte(fmt.Sprintf("key-%07d", i)), []byte("v"), 1<<60) {
				t.Fatal("OOM")
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapObjects
		s2 := AttachBounded(a, root, 1<<30)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		if st := s2.Stats(); st.TTLd != uint64(keys) || s2.Len() != keys {
			t.Fatalf("attached %d keys, %d stamped; want %d", s2.Len(), st.TTLd, keys)
		}
		return int64(ms.HeapObjects - before)
	}
	for _, keys := range []int{10_000, 100_000} {
		if n := grown(keys); n > 64 {
			t.Fatalf("attaching %d TTL'd keys left %d more Go objects; want at most 64, whatever the key count", keys, n)
		} else {
			t.Logf("%d keys: %d more Go objects", keys, n)
		}
	}
}
