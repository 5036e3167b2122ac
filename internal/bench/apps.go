package bench

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/vacation"
	"repro/internal/ycsb"
)

// ----------------------------------------------------------------------
// Vacation (Fig. 5e).

// VacationConfig parameterizes the application run.
type VacationConfig struct {
	Vac         vacation.Config
	TxPerThread int
	CancelFrac  float64 // fraction of transactions that cancel (adds frees)
}

// DefaultVacation mirrors the paper at test scale: 16384 relations, 5
// queries per transaction, 90% coverage.
func DefaultVacation() VacationConfig {
	return VacationConfig{
		Vac:         vacation.Config{Relations: 16384, QueriesPerTx: 5, QueryRange: 0.90},
		TxPerThread: 20000,
		CancelFrac:  0.25,
	}
}

// Vacation populates the database and runs cfg.TxPerThread transactions on
// each of t threads. Time is reported for the transaction phase only (the
// paper's measured region).
func Vacation(a alloc.Allocator, t int, cfg VacationConfig) Result {
	setup := a.NewHandle()
	m := vacation.New(a, setup, cfg.Vac)
	elapsed := runThreads(t, func(id int) {
		hd := a.NewHandle()
		c := m.NewClient(hd, int64(id)+7)
		cancelEvery := 0
		if cfg.CancelFrac > 0 {
			cancelEvery = int(1 / cfg.CancelFrac)
		}
		for i := 0; i < cfg.TxPerThread; i++ {
			if cancelEvery > 0 && i%cancelEvery == cancelEvery-1 && c.CancelOldest() {
				continue
			}
			if !c.MakeReservation(uint64(id*cfg.TxPerThread+i) + 1) {
				panic(fmt.Sprintf("%s: vacation OOM", a.Name()))
			}
		}
	})
	return Result{Allocator: a.Name(), Threads: t, Ops: m.Transactions(), Elapsed: elapsed}
}

// ----------------------------------------------------------------------
// Memcached + YCSB (Fig. 5f).

// MemcachedConfig parameterizes the application run.
type MemcachedConfig struct {
	Workload ycsb.Workload
	OpsPerTh int
}

// DefaultMemcached mirrors the paper at test scale: workload A over 100 K
// records, 100 K operations total (split over threads by the caller).
func DefaultMemcached(records int) MemcachedConfig {
	return MemcachedConfig{Workload: ycsb.WorkloadA(records), OpsPerTh: 20000}
}

// loadRecords populates the store for a workload: flat strings, or — for a
// hash workload (Fields > 0) — one hash object per record with every field
// populated, so reads start warm.
func loadRecords(a alloc.Allocator, store *kvstore.Store, setup alloc.Handle, w ycsb.Workload) {
	loader := ycsb.NewGenerator(w, 999)
	var buf []byte
	for i := 0; i < w.Records; i++ {
		if w.Fields > 0 {
			key := []byte(ycsb.KeyAt(i))
			for f := 0; f < w.Fields; f++ {
				buf = loader.Value(buf)
				if _, err := store.HSet(setup, key, []byte(ycsb.FieldAt(f)), buf); err != nil {
					panic(fmt.Sprintf("%s: memcached hash load: %v", a.Name(), err))
				}
			}
			continue
		}
		buf = loader.Value(buf)
		if !store.SetBytes(setup, []byte(ycsb.KeyAt(i)), buf) {
			panic(fmt.Sprintf("%s: memcached load OOM", a.Name()))
		}
	}
}

// Memcached loads the record set and runs cfg.OpsPerTh YCSB operations per
// thread; throughput covers the operation phase only.
func Memcached(a alloc.Allocator, t int, cfg MemcachedConfig) Result {
	setup := a.NewHandle()
	store, _ := kvstore.Open(a, setup, cfg.Workload.Records)
	loadRecords(a, store, setup, cfg.Workload)
	elapsed := runThreads(t, func(id int) {
		hd := a.NewHandle()
		gen := ycsb.NewGenerator(cfg.Workload, int64(id)+1)
		var vbuf []byte
		for i := 0; i < cfg.OpsPerTh; i++ {
			// Library mode has no server to run the active expiry cycle, so
			// TTL workloads interleave reclamation with the traffic itself —
			// the expire/reclaim half of the cache lifecycle stays on the
			// measured path.
			if cfg.Workload.TTLFrac > 0 && i%256 == 255 {
				store.ReclaimExpired(hd, 32)
			}
			op := gen.Next()
			switch op.Kind {
			case ycsb.Read:
				if op.Field != "" {
					if _, _, err := store.HGet([]byte(op.Key), []byte(op.Field)); err != nil {
						panic(fmt.Sprintf("%s: memcached HGet: %v", a.Name(), err))
					}
				} else {
					store.GetBytes([]byte(op.Key))
				}
			case ycsb.Update:
				vbuf = gen.Value(vbuf)
				if op.Field != "" {
					if _, err := store.HSet(hd, []byte(op.Key), []byte(op.Field), vbuf); err != nil {
						panic(fmt.Sprintf("%s: memcached HSet: %v", a.Name(), err))
					}
					break
				}
				ok := true
				if op.TTLMillis > 0 {
					ok = store.SetBytesExpire(hd, []byte(op.Key), vbuf, store.Now()+op.TTLMillis)
				} else {
					ok = store.SetBytes(hd, []byte(op.Key), vbuf)
				}
				if !ok {
					panic(fmt.Sprintf("%s: memcached OOM", a.Name()))
				}
			}
		}
	})
	ops := uint64(t) * uint64(cfg.OpsPerTh)
	return Result{Allocator: a.Name(), Threads: t, Ops: ops, Elapsed: elapsed}
}
