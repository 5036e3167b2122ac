package dstruct

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/pptr"
	"repro/internal/ralloc"
)

func TestHashMapBasic(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 64)
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("empty map found a key")
	}
	if !m.Set(hd, []byte("k1"), []byte("v1")) {
		t.Fatal("Set failed")
	}
	v, ok := m.Get([]byte("k1"))
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	m.Set(hd, []byte("k1"), []byte("v2-longer-value"))
	if v, _ := m.Get([]byte("k1")); string(v) != "v2-longer-value" {
		t.Fatalf("updated value = %q", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if !m.Delete(hd, []byte("k1")) {
		t.Fatal("Delete failed")
	}
	if m.Delete(hd, []byte("k1")) {
		t.Fatal("double Delete succeeded")
	}
}

// stampOf reads key's value and stamp through the one locked lookup.
func stampOf(m *HashMap, key string) (val string, at uint64, ok bool) {
	ok = m.View([]byte(key), func(rec Record) { val, at = string(rec.Value()), rec.ExpireAt })
	return val, at, ok
}

func TestHashMapExpireStamp(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 64)
	if _, ok := m.SetExpire(hd, []byte("k"), []byte("v"), 500); !ok {
		t.Fatal("SetExpire failed")
	}
	if v, at, ok := stampOf(m, "k"); !ok || v != "v" || at != 500 {
		t.Fatalf("View = (%q,%d,%v)", v, at, ok)
	}
	// The map returns expired records verbatim — policy is the caller's.
	if _, ok := m.Get([]byte("k")); !ok {
		t.Fatal("map-level Get filtered an expired record")
	}
	// UpdateExpire refuses dead records (no resurrection) but rewrites
	// live ones in place; Set replaces and clears the stamp.
	if _, ok := m.UpdateExpire([]byte("k"), 9000, 600); ok {
		t.Fatal("UpdateExpire modified a record already past its stamp")
	}
	if prev, ok := m.UpdateExpire([]byte("k"), 9000, 400); !ok || prev != 500 {
		t.Fatalf("UpdateExpire live = (%d,%v)", prev, ok)
	}
	if _, at, _ := stampOf(m, "k"); at != 9000 {
		t.Fatalf("stamp after update = %d", at)
	}
	m.Set(hd, []byte("k"), []byte("v2"))
	if _, at, _ := stampOf(m, "k"); at != 0 {
		t.Fatalf("Set kept the old stamp: %d", at)
	}
	// A conditional Remove only fires when the stamp has actually passed,
	// and reports the stamp of the record it looked at either way.
	m.SetExpire(hd, []byte("k"), []byte("v3"), 1000)
	if at, _, ok := m.Remove(hd, []byte("k"), 999); ok || at != 1000 {
		t.Fatalf("conditional Remove of a live record = (%d,%v)", at, ok)
	}
	if at, _, ok := m.Remove(hd, []byte("missing"), 5000); ok || at != 0 {
		t.Fatalf("conditional Remove of a missing key = (%d,%v)", at, ok)
	}
	if at, _, ok := m.Remove(hd, []byte("k"), 1000); !ok || at != 1000 {
		t.Fatalf("conditional Remove of a dead record = (%d,%v)", at, ok)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Remove", m.Len())
	}
	// Immortal records are never sweepable — but the unconditional form
	// takes them, stamp and all.
	m.Set(hd, []byte("imm"), []byte("v"))
	if _, _, ok := m.Remove(hd, []byte("imm"), 1<<62); ok {
		t.Fatal("conditional Remove took an immortal record")
	}
	m.SetExpire(hd, []byte("imm"), []byte("v"), 77)
	if at, _, ok := m.Remove(hd, []byte("imm"), 0); !ok || at != 77 {
		t.Fatalf("unconditional Remove = (%d,%v), want (77,true)", at, ok)
	}
}

func TestHashMapRange(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 32)
	for i := 0; i < 50; i++ {
		at := uint64(0)
		if i%2 == 1 {
			at = uint64(1000 + i)
		}
		if _, ok := m.SetExpire(hd, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)), at); !ok {
			t.Fatal("OOM")
		}
	}
	stamped, seen := 0, map[string]int{}
	m.Range(0, m.Buckets(), func(rec Record) bool {
		key := rec.Key()
		seen[string(key)]++
		idx := int(key[1]-'0')*10 + int(key[2]-'0')
		if v := string(rec.Value()); v != fmt.Sprintf("v%02d", idx) {
			t.Fatalf("key %s value = %q", key, v)
		}
		if rec.Tag != TagString || rec.Bytes() != RecordSize(3, 3) {
			t.Fatalf("key %s tag %d bytes %d", key, rec.Tag, rec.Bytes())
		}
		if rec.ExpireAt != 0 {
			stamped++
			if want := uint64(1000 + idx); rec.ExpireAt != want {
				t.Fatalf("key %s stamp = %d, want %d", key, rec.ExpireAt, want)
			}
		}
		return true
	})
	if stamped != 25 || len(seen) != 50 {
		t.Fatalf("walked %d records, %d stamped; want 50 and 25", len(seen), stamped)
	}
	// Bucket bounds partition the walk (the SCAN cursor's contract), an
	// over-long bound clamps, and fn's false stops it.
	parts := 0
	for b := uint64(0); b < m.Buckets(); b += 8 {
		m.Range(b, b+8, func(Record) bool { parts++; return true })
	}
	beyond := 0
	m.Range(0, 1<<40, func(Record) bool { beyond++; return true })
	first := 0
	m.Range(0, m.Buckets(), func(Record) bool { first++; return false })
	if parts != 50 || beyond != 50 || first != 1 {
		t.Fatalf("partitioned walk %d, clamped walk %d, stopped walk %d; want 50, 50, 1", parts, beyond, first)
	}
}

// A header read from an image is checked at attach: a bucket count that is
// zero, not a power of two, or larger than the region could hold makes the
// hash mask index outside the bucket array — a panic on the first GET, or
// silently hidden keys — so it must fail at startup instead.
func TestAttachHashMapRejectsCorruptHeader(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdr := NewHashMap(a, hd, 64)
	m.Set(hd, []byte("k"), []byte("v"))
	r := a.Region()
	good, goodArr := r.Load(hdr+8), r.Load(hdr)
	for name, corrupt := range map[string]func(){
		"zero buckets":         func() { r.Store(hdr+8, 0) },
		"not a power of two":   func() { r.Store(hdr+8, 48) },
		"larger than region":   func() { r.Store(hdr+8, 1<<40) },
		"overflowing count":    func() { r.Store(hdr+8, 1<<63) },
		"no bucket array":      func() { r.Store(hdr, 0) },
		"array outside region": func() { r.Store(hdr, pptr.Pack(hdr, r.Size()+4096)) },
	} {
		t.Run(name, func(t *testing.T) {
			corrupt()
			defer func() {
				r.Store(hdr+8, good)
				r.Store(hdr, goodArr)
				if recover() == nil {
					t.Error("AttachHashMap accepted the header")
				}
			}()
			AttachHashMap(a, hdr)
		})
	}
	if v, ok := AttachHashMap(a, hdr).Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("restored header: Get = (%q,%v)", v, ok)
	}
}

func TestHashMapModel(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 128)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			val := fmt.Sprintf("val-%d", rng.Intn(100000))
			if !m.Set(hd, []byte(key), []byte(val)) {
				t.Fatal("OOM")
			}
			model[key] = val
		case 1:
			del := m.Delete(hd, []byte(key))
			_, existed := model[key]
			if del != existed {
				t.Fatalf("op %d: Delete(%s)=%v, existed=%v", i, key, del, existed)
			}
			delete(model, key)
		default:
			v, ok := m.Get([]byte(key))
			mv, existed := model[key]
			if ok != existed || (ok && string(v) != mv) {
				t.Fatalf("op %d: Get(%s)=(%q,%v), want (%q,%v)", i, key, v, ok, mv, existed)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(model))
	}
}

func TestHashMapQuickRoundTrip(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 256)
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 512 || len(val) > 512 {
			return true
		}
		if !m.Set(hd, key, val) {
			return false
		}
		got, ok := m.Get(key)
		return ok && string(got) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapConcurrent(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	m, _ := NewHashMap(a, a.NewHandle(), 512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hd := a.NewHandle()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, rng.Intn(200)))
				switch rng.Intn(3) {
				case 0:
					if !m.Set(hd, key, []byte(fmt.Sprintf("v%d", i))) {
						t.Error("OOM")
						return
					}
				case 1:
					m.Delete(hd, key)
				default:
					m.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapCrashRecoveryConservative(t *testing.T) {
	// The hash map links with off-holders, so it survives recovery even
	// under purely conservative tracing — no filter registered at all.
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdrOff := NewHashMap(a, hd, 64)
	want := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%04d", i)
		if !m.Set(hd, []byte(k), []byte(v)) {
			t.Fatal("OOM")
		}
		want[k] = v
	}
	h.SetRoot(0, hdrOff)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil) // conservative
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	m2 := AttachHashMap(a, hdrOff)
	for k, v := range want {
		got, ok := m2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("key %s = (%q,%v) after recovery, want %q", k, got, ok, v)
		}
	}
	if m2.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m2.Len(), len(want))
	}
}

// The filter takes a bucket array 4096 heads at a time. A map of four
// instalments, some of them empty, traces to the same blocks and the same work
// at every worker count — a worker handed the older half of a stack continues
// the array — and the riding visit sees each record once.
func TestHashMapFilterScansBucketArrayInInstalments(t *testing.T) {
	const buckets, records = 4 * 4096, 9000
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdrOff := NewHashMap(a, hd, buckets)
	for i := 0; i < records; i++ {
		if !m.Set(hd, []byte(fmt.Sprintf("k%d", i)), []byte("v")) {
			t.Fatal("OOM")
		}
	}
	h.SetRoot(0, hdrOff)
	h.Region().Persist()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	var want ralloc.RecoveryStats
	for _, workers := range []int{1, 2, 4, 8} {
		var visited atomic.Int64
		h.GetRoot(0, HashMapFilter(h.Region(), func(_, _, _ uint64) { visited.Add(1) }))
		stats, err := h.RecoverParallel(workers)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ReachableBlocks != records+2 || visited.Load() != records {
			t.Fatalf("workers=%d: %d blocks reachable, %d records visited; want %d, %d",
				workers, stats.ReachableBlocks, visited.Load(), records+2, records)
		}
		// One candidate per non-empty head and per link, and the array once.
		if stats.TraceWork != records+2 {
			t.Fatalf("workers=%d: TraceWork %d, want %d", workers, stats.TraceWork, records+2)
		}
		stats.TraceTime, stats.SweepTime, stats.Duration = 0, 0, 0
		if workers == 1 {
			want = stats
		} else if stats != want {
			t.Fatalf("workers=%d: %+v, one worker %+v", workers, stats, want)
		}
	}
	if m2 := AttachHashMap(a, hdrOff); m2.Len() != records {
		t.Fatalf("Len = %d, want %d", m2.Len(), records)
	}
}

func TestHashMapCrashRecoveryWithFilter(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdrOff := NewHashMap(a, hd, 64)
	for i := 0; i < 300; i++ {
		m.Set(hd, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Plus leaked blocks that must be reclaimed.
	for i := 0; i < 1000; i++ {
		hd.Malloc(64)
	}
	h.SetRoot(0, hdrOff)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, HashMapFilter(h.Region(), nil))
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// header + bucket array + 300 nodes.
	if stats.ReachableBlocks != 302 {
		t.Fatalf("reachable = %d, want 302", stats.ReachableBlocks)
	}
	m2 := AttachHashMap(a, hdrOff)
	hd2 := a.NewHandle()
	for i := 0; i < 300; i++ {
		if v, ok := m2.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key k%d lost or wrong: (%q,%v)", i, v, ok)
		}
	}
	// Still writable.
	if !m2.Set(hd2, []byte("post"), []byte("crash")) {
		t.Fatal("Set after recovery failed")
	}
}
