// Package obs is the observability core: allocation-free, lock-free latency
// histograms, cache-line-padded striped counters, a Redis-style latency
// event timeline and slow log, the stat table whose rows are declared once
// and rendered twice (INFO text and /metrics, table.go), and a hand-rolled
// Prometheus text registry with an HTTP handler that also serves
// net/http/pprof.
//
// The package is deliberately stdlib-only and persistent-heap-free: nothing
// in obs may import the pmem/ralloc/kvstore layers or touch a pmem.Region —
// telemetry must never be able to perturb crash consistency. ralloc-vet's
// obspurity analyzer enforces that boundary statically, and the deferunlock
// analyzer guards the package's (slow-path-only) mutexes.
//
// Layering: obs sits below everything (it imports nothing of the repo), and
// the serving/allocator layers push measurements into it — the dispatch
// pipeline records per-command histograms and the slow log, checkpoint and
// recovery paths record timeline events, and the allocator exposes per-shard
// counters through the Collector interface for the /metrics endpoint.
package obs
