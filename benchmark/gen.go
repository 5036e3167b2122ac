package main

import (
	"encoding/binary"
	"math/rand"
)

// The benchmark owns its key, value and op-stream generators: nothing here
// imports internal/ycsb, so reshaping that package cannot move the ruler.

const (
	keyLen = 14  // "user" + 10 digits
	valLen = 100 // [0:8] hash of the key, [8:12] version, rest filler
	// zipfS is the skew of the scrambled-zipfian key choice.
	zipfS = 1.08
	// scramble is a prime far above any record count, so rank*scramble mod n
	// is a bijection on [0,n): hot ranks land on scattered record numbers.
	scramble = 2654435761
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetTTL // arg = TTL in milliseconds
	opPing
)

// op is one generated command. arg is the value version for opSet and the
// TTL for opSetTTL.
type op struct {
	id   uint32
	arg  uint16
	kind opKind
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyHash is the 8-byte prefix every value of record id carries; a GET reply
// is correct only if it has the right length and this prefix.
func keyHash(id uint32) uint64 { return mix64(uint64(id) ^ 0x5ca1ab1e) }

// appendKey appends "user%010d" without fmt.
func appendKey(dst []byte, id uint32) []byte {
	var d [10]byte
	for i := 9; i >= 0; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	dst = append(dst, "user"...)
	return append(dst, d[:]...)
}

// appendValue appends the 100-byte value of (id, version).
func appendValue(dst []byte, id uint32, version uint32) []byte {
	h := keyHash(id)
	dst = binary.LittleEndian.AppendUint64(dst, h)
	dst = binary.LittleEndian.AppendUint32(dst, version)
	x := h ^ uint64(version)
	for n := 12; n < valLen; n += 8 { // 11 words: 12 + 88 = valLen
		x = mix64(x)
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// checkValue reports whether v is a well-formed value of record id, and its
// version.
func checkValue(v []byte, id uint32) (version uint32, ok bool) {
	if len(v) != valLen || binary.LittleEndian.Uint64(v) != keyHash(id) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(v[8:]), true
}

// keyChooser draws record numbers from a scrambled zipfian.
type keyChooser struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint64
	off  uint64
}

func newKeyChooser(seed int64, records int) *keyChooser {
	rng := rand.New(rand.NewSource(seed))
	return &keyChooser{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(records-1)),
		n:    uint64(records),
		off:  uint64(rng.Int63()),
	}
}

func (k *keyChooser) next() uint32 {
	return uint32((k.zipf.Uint64()*scramble + k.off) % k.n)
}

// genStream generates n ops of a socket workload's mix for one connection.
// The same (workload, seed, conn) always yields the same stream; the traced
// replay takes a prefix of connection 0's.
func genStream(workload string, seed int64, conn, records, n int) []op {
	kc := newKeyChooser(seed*1000003+int64(conn)*7919+1, records)
	ops := make([]op, n)
	for i := range ops {
		o := op{id: kc.next(), arg: uint16(i)}
		switch workload {
		case "kv_read":
			o.kind = opGet
		case "kv_write":
			if kc.rng.Intn(2) == 0 {
				o.kind = opSet
			}
		case "kv_cache":
			switch r := kc.rng.Intn(40); {
			case r == 0: // 2.5 %: SET with a 1-2 s TTL
				o.kind, o.arg = opSetTTL, uint16(1000+kc.rng.Intn(1001))
			case r == 1: // 2.5 %: plain SET
				o.kind = opSet
			}
		case "set_only":
			o.kind = opSet
		default:
			panic("genStream: no op mix for workload " + workload)
		}
		ops[i] = o
	}
	return ops
}

// shuffledIDs returns a seeded permutation of [0,records); the crash cycles
// take disjoint slices of it so no key is written twice.
func shuffledIDs(seed int64, records int) []uint32 {
	rng := rand.New(rand.NewSource(seed ^ 0x7a5))
	ids := make([]uint32, records)
	for i := range ids {
		ids[i] = uint32(i)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}
