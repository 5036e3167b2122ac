package ralloc

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/pptr"
)

// Hostile heap metadata. A heap image can arrive over the network (replica
// bootstrap) or off a disk that tore it, so every persistent metadata word
// is outside input: Attach must refuse what it can check, and recovery must
// finish — never panic, hang, or size an allocation from an unchecked word.

// hostileHeap builds a small heap whose every kind of descriptor is in use —
// a rooted list (small class), a rooted large run, leaked small blocks and a
// leaked large run — with everything written so far persisted, so that the
// caller's stores are the only damage a following Crash leaves behind.
// It returns the heap and the rooted large run's first descriptor; the first
// list node sits at the very start of superblock 0.
func hostileHeap(tb testing.TB) (h *Heap, run uint32) {
	tb.Helper()
	var firstNode uint64
	h, _, err := Open("", hostileConfig)
	if err != nil {
		tb.Fatal(err)
	}
	hd := h.NewHandle()
	r := h.Region()
	var prev uint64
	for i := 0; i < 40; i++ {
		n := hd.Malloc(64)
		if prev == 0 {
			firstNode = n
			r.Store(n, pptr.Nil)
		} else {
			r.Store(n, pptr.Pack(n, prev))
		}
		prev = n
	}
	big := hd.Malloc(2*SuperblockBytes + 100)
	r.Store(prev+8, pptr.Pack(prev+8, big))
	h.SetRoot(0, prev)
	for i := 0; i < 10; i++ {
		hd.Malloc(320)
	}
	hd.Malloc(SuperblockBytes + 100)
	if big == 0 || firstNode != h.lay.sbOff(0) {
		tb.Fatalf("unexpected layout: big=%#x first node %#x", big, firstNode)
	}
	r.Persist()
	idx, _ := h.lay.descIndexOf(big)
	return h, idx
}

var hostileConfig = Config{
	SBRegion:    16 * SuperblockBytes,
	GrowthChunk: SuperblockBytes,
	Shards:      2,
	Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, Seed: 3},
}

// poke persists one hostile word.
func poke(h *Heap, off, v uint64) {
	h.region.Store(off, v)
	h.region.Flush(off)
}

// recoverWithin crashes h, re-attaches, and runs recovery with the given
// worker count under a watchdog that ends the process; it then requires
// clean invariants and a working allocator. An Attach error is an accepted
// outcome (reported as attached=false).
func recoverWithin(tb testing.TB, h *Heap, workers int, limit time.Duration) (attached bool) {
	tb.Helper()
	if err := h.Region().Crash(); err != nil {
		tb.Fatal(err)
	}
	h2, _, err := Attach(h.Region(), hostileConfig)
	if err != nil {
		return false
	}
	h2.GetRoot(0, nil)
	// The watchdog is a timer, not a goroutine racing a select: a recovery
	// that spins can only be stopped by ending the process, and a run that
	// finishes spawns nothing (the fuzzer's coverage stays repeatable).
	watchdog := time.AfterFunc(limit, func() {
		panic(fmt.Sprintf("recovery with %d workers did not return within %v", workers, limit))
	})
	_, err = h2.RecoverParallel(workers)
	watchdog.Stop()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := h2.CheckInvariants(); err != nil {
		tb.Fatal(err)
	}
	if b := h2.NewHandle().Malloc(64); b != 0 && (b < h2.SBStart() || b >= h2.SBStart()+h2.SBUsed()) {
		tb.Fatalf("Malloc returned %#x outside the used superblock region", b)
	}
	return true
}

func TestAttachRejectsCorruptWatermark(t *testing.T) {
	sbSize := hostileConfig.SBRegion
	for _, used := range []uint64{sbSize + SuperblockBytes, 1 << 40, 12345} {
		h, _ := hostileHeap(t)
		poke(h, offSBUsed, used)
		if err := h.Region().Crash(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Attach(h.Region(), hostileConfig); err == nil {
			t.Fatalf("Attach accepted used watermark %d (superblock region %d)", used, sbSize)
		}
	}
	// The largest legal watermark still attaches and recovers.
	h, _ := hostileHeap(t)
	poke(h, offSBUsed, sbSize)
	if !recoverWithin(t, h, 1, 5*time.Second) {
		t.Fatal("Attach refused a full but legal watermark")
	}
}

// TestRecoverHostileLargeRun: the run length and block size of a large run
// are persistent words. A length of 1<<32 used to narrow to 0 and stall the
// sweep forever; a block size larger than the run sent the conservative scan
// off the end of the region.
func TestRecoverHostileLargeRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		field, v uint64
	}{
		{"numSB=1<<32", dOffNumSB, 1 << 32},
		{"numSB=1<<32+3", dOffNumSB, 1<<32 + 3},
		{"numSB past the watermark", dOffNumSB, 14},
		{"blockSize=1<<40", dOffBlockSize, 1 << 40},
	} {
		for _, workers := range []int{1, 4} {
			h, run := hostileHeap(t)
			poke(h, h.lay.descOff(run)+tc.field, tc.v)
			if !recoverWithin(t, h, workers, 5*time.Second) {
				t.Fatalf("%s: Attach refused the image", tc.name)
			}
		}
	}
}

// FuzzRecoverMetadata stores arbitrary words over the metadata region and
// the used descriptors of a small crashed heap, then attaches and recovers.
// Input: one byte choosing the worker count (1 + b mod 3), then 10-byte
// records of (word index, little-endian u16; value, u64). Recovery runs
// whatever the dirty word says: a clean flag only means the lists are
// trusted as they are, which is not what is under test here.
func FuzzRecoverMetadata(f *testing.F) {
	record := func(word int, v uint64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, uint16(word))
		return binary.LittleEndian.AppendUint64(b, v)
	}
	const metaWords = MetaBytes / 8
	seedHeap, run := hostileHeap(f)
	descWord := func(i uint32, field uint64) int { return metaWords + int(i)*DescBytes/8 + int(field/8) }
	f.Add([]byte{0})
	f.Add(append([]byte{0}, record(offSBUsed/8, hostileConfig.SBRegion+SuperblockBytes)...))
	f.Add(append([]byte{1}, record(offSBUsed/8, 1<<40)...))
	f.Add(append([]byte{2}, record(offSBUsed/8, 12345)...))
	f.Add(append([]byte{0}, record(descWord(run, dOffNumSB), 1<<32)...))
	f.Add(append([]byte{1}, record(descWord(run, dOffNumSB), 1<<32)...))
	f.Add(append([]byte{2}, record(descWord(run, dOffBlockSize), 1<<40)...))
	// A small-class superblock holding list nodes re-labelled as a huge
	// large run, and a root aimed at a descriptor.
	f.Add(append(append(append([]byte{1},
		record(descWord(0, dOffClass), 0)...),
		record(descWord(0, dOffBlockSize), 1<<50)...),
		record(descWord(0, dOffNumSB), 1)...))
	f.Add(append([]byte{0}, record(int(rootOff(0)/8), pptr.Pack(rootOff(0), seedHeap.lay.descOff(0)))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h, _ := hostileHeap(t)
		words := metaWords + int(h.usedDescs())*DescBytes/8
		for rec := data[1:]; len(rec) >= 10; rec = rec[10:] {
			w := int(binary.LittleEndian.Uint16(rec)) % words
			off := uint64(w) * 8
			if w >= metaWords {
				off = h.lay.descStart + uint64(w-metaWords)*8
			}
			poke(h, off, binary.LittleEndian.Uint64(rec[2:]))
		}
		recoverWithin(t, h, 1+int(data[0])%3, 10*time.Second)
	})
}
