package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Crash injection around every hash/list persist point, extending the TTL
// sweep's pattern: the pmem StoreHook panics after the k-th store inside a
// phase of object traffic (HSET create/replace, HDEL, LPUSH, RPUSH, LPOP,
// RPOP, SET-over-object, DEL-of-object), so the crash lands between the
// individual flushes of each operation — mid node init, between a link
// swing and its bookkeeping, between a field unlink and the record unlink.
// After recovery (GC + the attach) the invariant is the tentpole's
// headline guarantee: every object equals a state the operation sequence
// could legally have produced — each acknowledged mutation wholly present,
// the one in-flight mutation wholly present or wholly absent, never a
// half-linked node — and the deque's repairable words (tail, prev, length)
// agree with the authoritative forward chain.

// objWorld is the model of acknowledged object state.
type objWorld struct {
	hashes  map[string]map[string]string
	lists   map[string][]string
	strings map[string]string
}

func newObjWorld() *objWorld {
	return &objWorld{
		hashes:  map[string]map[string]string{},
		lists:   map[string][]string{},
		strings: map[string]string{},
	}
}

func (w *objWorld) clone() *objWorld {
	c := newObjWorld()
	for k, h := range w.hashes {
		m := map[string]string{}
		for f, v := range h {
			m[f] = v
		}
		c.hashes[k] = m
	}
	for k, l := range w.lists {
		c.lists[k] = append([]string(nil), l...)
	}
	for k, v := range w.strings {
		c.strings[k] = v
	}
	return c
}

// objCrashAt builds a store, runs object traffic that crashes at the k-th
// persistent store, and returns the heap plus the last acknowledged world
// and the world as it would look had the in-flight op completed. done
// reports that the whole armed phase finished without the hook firing (k
// beyond the phase's store count).
func objCrashAt(t *testing.T, k int) (h *ralloc.Heap, acked, pending *objWorld, done bool) {
	t.Helper()
	var c alloctest.Crasher
	h, _, err := ralloc.Open("", ralloc.Config{
		SBRegion:    16 << 20,
		GrowthChunk: 1 << 20,
		Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, StoreHook: c.Hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := Open(a, hd, 256)
	h.SetRoot(0, root)

	// Quiet phase: an acknowledged base population.
	acked = newObjWorld()
	for i := 0; i < 6; i++ {
		hk := fmt.Sprintf("h-%02d", i)
		acked.hashes[hk] = map[string]string{}
		for f := 0; f < 4; f++ {
			fk, fv := fmt.Sprintf("f%02d", f), fmt.Sprintf("hv-%02d-%02d", i, f)
			if _, err := s.HSet(hd, []byte(hk), []byte(fk), []byte(fv)); err != nil {
				t.Fatal(err)
			}
			acked.hashes[hk][fk] = fv
		}
		lk := fmt.Sprintf("l-%02d", i)
		for e := 0; e < 4; e++ {
			ev := fmt.Sprintf("lv-%02d-%02d", i, e)
			if _, err := s.RPush(hd, []byte(lk), []byte(ev)); err != nil {
				t.Fatal(err)
			}
			acked.lists[lk] = append(acked.lists[lk], ev)
		}
		sk := fmt.Sprintf("s-%02d", i)
		if !s.SetBytes(hd, []byte(sk), []byte("sv-"+sk)) {
			t.Fatal("OOM")
		}
		acked.strings[sk] = "sv-" + sk
	}

	// Armed phase: a deterministic mix hitting every persist point. Each
	// step computes the post-state first, then executes; if the hook fires
	// mid-step, `pending` holds the step's would-be outcome.
	// done stays false when the crash cuts the phase short.
	armedPhase := func() bool {
		step := func(mutate func(w *objWorld), op func() error) bool {
			next := acked.clone()
			mutate(next)
			pending = next
			if err := op(); err != nil {
				t.Errorf("k=%d: op failed: %v", k, err)
				return false
			}
			acked, pending = next, nil
			return true
		}
		for i := 0; i < 10; i++ {
			hk := fmt.Sprintf("h-%02d", i%6)
			lk := fmt.Sprintf("l-%02d", i%6)
			nf, nv := fmt.Sprintf("nf%02d", i), fmt.Sprintf("nv%02d", i)
			// HSET: new field on an existing hash.
			if !step(func(w *objWorld) { w.hashes[hk][nf] = nv },
				func() error { _, err := s.HSet(hd, []byte(hk), []byte(nf), []byte(nv)); return err }) {
				return false
			}
			// HSET: replace an existing field.
			rv := fmt.Sprintf("rv%02d", i)
			if !step(func(w *objWorld) { w.hashes[hk]["f00"] = rv },
				func() error { _, err := s.HSet(hd, []byte(hk), []byte("f00"), []byte(rv)); return err }) {
				return false
			}
			// HDEL one field.
			if !step(func(w *objWorld) { delete(w.hashes[hk], "f01") },
				func() error { _, err := s.HDel(hd, []byte(hk), []byte("f01")); return err }) {
				return false
			}
			// LPUSH and RPUSH.
			lv := fmt.Sprintf("plv%02d", i)
			if !step(func(w *objWorld) { w.lists[lk] = append([]string{lv}, w.lists[lk]...) },
				func() error { _, err := s.LPush(hd, []byte(lk), []byte(lv)); return err }) {
				return false
			}
			rvl := fmt.Sprintf("prv%02d", i)
			if !step(func(w *objWorld) { w.lists[lk] = append(w.lists[lk], rvl) },
				func() error { _, err := s.RPush(hd, []byte(lk), []byte(rvl)); return err }) {
				return false
			}
			// LPOP and RPOP.
			if !step(func(w *objWorld) { w.lists[lk] = w.lists[lk][1:] },
				func() error { _, _, err := s.LPop(hd, []byte(lk)); return err }) {
				return false
			}
			if !step(func(w *objWorld) { w.lists[lk] = w.lists[lk][:len(w.lists[lk])-1] },
				func() error { _, _, err := s.RPop(hd, []byte(lk)); return err }) {
				return false
			}
			// A fresh hash created in one HSET (multi-pair, atomic install).
			ck := fmt.Sprintf("hc-%02d", i)
			if !step(func(w *objWorld) { w.hashes[ck] = map[string]string{"a": "1", "b": "2"} },
				func() error {
					_, err := s.HSet(hd, []byte(ck), []byte("a"), []byte("1"), []byte("b"), []byte("2"))
					return err
				}) {
				return false
			}
			// SET over an object (type overwrite frees the graph) — use the
			// hash created two rounds ago so later rounds still have one.
			if i >= 2 {
				ok := fmt.Sprintf("hc-%02d", i-2)
				if !step(func(w *objWorld) { delete(w.hashes, ok); w.strings[ok] = "overwritten" },
					func() error {
						if !s.SetBytes(hd, []byte(ok), []byte("overwritten")) {
							return ErrNoMemory
						}
						return nil
					}) {
					return false
				}
			}
			// DEL of a whole list object every few rounds (recreated next
			// round by the pushes above when i%6 cycles back).
			if i == 5 {
				dk := "l-05"
				if !step(func(w *objWorld) { delete(w.lists, dk) },
					func() error { s.Delete(hd, []byte(dk)); return nil }) {
					return false
				}
			}
		}
		return true
	}
	c.At(k, func() { done = armedPhase() })
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	return h, acked, pending, done
}

// worldDiff checks the recovered store against a model world, returning a
// description of the first divergence ("" = exact match).
func worldDiff(t *testing.T, s *Store, w *objWorld) string {
	t.Helper()
	for hk, fields := range w.hashes {
		n, err := s.HLen([]byte(hk))
		if err != nil {
			return fmt.Sprintf("HLen(%s): %v", hk, err)
		}
		if n != len(fields) {
			return fmt.Sprintf("HLen(%s) = %d, want %d", hk, n, len(fields))
		}
		fs, vs, err := s.HGetAll([]byte(hk))
		if err != nil {
			return fmt.Sprintf("HGetAll(%s): %v", hk, err)
		}
		got := map[string]string{}
		for i := range fs {
			got[string(fs[i])] = string(vs[i])
		}
		for f, v := range fields {
			if got[f] != v {
				return fmt.Sprintf("hash %s field %s = %q, want %q", hk, f, got[f], v)
			}
		}
		if len(got) != len(fields) {
			return fmt.Sprintf("hash %s has %d fields, want %d", hk, len(got), len(fields))
		}
	}
	for lk, want := range w.lists {
		n, err := s.LLen([]byte(lk))
		if err != nil {
			return fmt.Sprintf("LLen(%s): %v", lk, err)
		}
		if n != len(want) {
			return fmt.Sprintf("LLen(%s) = %d, want %d", lk, n, len(want))
		}
		vals, err := s.LRange([]byte(lk), 0, -1)
		if err != nil {
			return fmt.Sprintf("LRange(%s): %v", lk, err)
		}
		if len(vals) != len(want) {
			return fmt.Sprintf("list %s forward walk %d elems, LLen %d", lk, len(vals), n)
		}
		for i := range want {
			if string(vals[i]) != want[i] {
				return fmt.Sprintf("list %s[%d] = %q, want %q", lk, i, vals[i], want[i])
			}
		}
	}
	for sk, want := range w.strings {
		v, ok, _ := s.GetBytes([]byte(sk))
		if !ok || string(v) != want {
			return fmt.Sprintf("string %s = (%q,%v), want %q", sk, v, ok, want)
		}
	}
	// No extra keys beyond the model.
	if got, want := s.Len(), len(w.hashes)+len(w.lists)+len(w.strings); got != want {
		return fmt.Sprintf("Len = %d, model has %d keys", got, want)
	}
	return ""
}

func TestObjectCrashInjectionSweep(t *testing.T) {
	for _, mode := range restartModes {
		t.Run(mode.String(), func(t *testing.T) { objCrashSweep(t, mode) })
	}
}

func objCrashSweep(t *testing.T, mode restartMode) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 19, 23, 28, 34, 41, 50, 60, 73, 88, 107, 130, 157, 190, 230, 278, 336, 407, 492, 595, 720, 871, 1054, 1275, 1543, 1867, 2259} {
		h, acked, pending, done := objCrashAt(t, k)
		a := h.AsAllocator()
		s := mode.restart(t, h, 0)

		// The recovered keyspace must equal the acknowledged world, or —
		// when a mutation was in flight — the world with exactly that
		// mutation applied. Anything else (a half-linked node, a torn
		// field, a dropped acked write) fails.
		diff := worldDiff(t, s, acked)
		if diff != "" && pending != nil {
			if diff2 := worldDiff(t, s, pending); diff2 != "" {
				t.Fatalf("k=%d: recovered state matches neither old (%s) nor new (%s)", k, diff, diff2)
			}
		} else if diff != "" {
			t.Fatalf("k=%d: acked state diverged: %s", k, diff)
		}

		// The recovered objects stay fully mutable: both deque ends and
		// the hash chains work after repair.
		hd := a.NewHandle()
		for i := 0; i < 6; i++ {
			lk := []byte(fmt.Sprintf("l-%02d", i))
			if n, _ := s.LLen(lk); n > 0 {
				if _, ok, err := s.RPop(hd, lk); !ok || err != nil {
					t.Fatalf("k=%d: post-recovery RPop(%s) = (%v,%v)", k, lk, ok, err)
				}
				if _, err := s.LPush(hd, lk, []byte("post")); err != nil {
					t.Fatalf("k=%d: post-recovery LPush(%s): %v", k, lk, err)
				}
			}
			hk := []byte(fmt.Sprintf("h-%02d", i))
			if _, err := s.HSet(hd, hk, []byte("post"), []byte("1")); err != nil {
				t.Fatalf("k=%d: post-recovery HSet(%s): %v", k, hk, err)
			}
		}
		assertLenMatchesWalk(t, s)
		if _, err := h.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if done {
			// The armed phase ran to completion without the hook firing:
			// larger k values add no new crash points.
			break
		}
	}
}
