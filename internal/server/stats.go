package server

// The server's stat table (internal/obs): every counter the serving layer
// reports is one row below — where it is read, its INFO key, its /metrics
// family — and INFO, INFO <section>, Sections and Collect are walks over it.
// To report a new number, add a row.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

const counter, gauge = "counter", "gauge"

// statTable assembles the table: the builtin sections in INFO order, then
// the embedder's — one whose name matches a builtin (notably "persistence")
// goes directly behind it, so the two render as one block, the way Redis
// keeps all durability facts under one header.
func (s *Server) statTable() obs.Table {
	t := obs.Table{
		{Name: "server", Rows: s.serverRows},
		{Name: "keyspace", Rows: s.keyspaceRows},
		{Name: "expires", Rows: s.expiresRows},
		{Name: "persistence", Rows: s.persistenceRows},
		{Name: "replication", Rows: s.replicationRows},
		{Name: "cluster", Rows: s.clusterRows},
		{Name: "commandstats", OnDemand: true, Rows: s.commandRows},
		{Name: "latencystats", OnDemand: true, Rows: s.latencyRows},
		{Rows: s.slowlogRows}, // /metrics only
	}
	for _, sec := range s.cfg.InfoSections {
		at := len(t)
		for i := range t {
			if strings.EqualFold(t[i].Name, sec.Name) {
				at = i + 1
			}
		}
		t = slices.Insert(t, at, sec)
	}
	return t
}

// Sections lists every section name INFO <section> serves directly:
// builtins first, then the embedder's. The registry-generated round-trip
// test drives INFO with each of these and requires the reply to be exactly
// that section.
func (s *Server) Sections() []string { return s.stats.Names() }

// metricsOrder is the section order of the /metrics text, which is older
// than the table and differs from INFO's; scrapes stay byte-identical.
var metricsOrder = [...]string{"server", "commandstats", "persistence", "expires", "keyspace", "", "cluster", "replication"}

// Collect implements obs.Collector: the server's /metrics families.
func (s *Server) Collect(e *obs.Emitter) {
	for _, name := range metricsOrder {
		s.stats.Named(name).Collect(e)
	}
}

func (s *Server) serverRows() []obs.Row {
	return []obs.Row{
		{Key: "allocator", Val: s.shards[0].a.Name()},
		{Key: "uptime_in_seconds", Val: int(time.Since(s.start).Seconds())},
		{Key: "connected_clients", Val: s.connCount(), Metric: "ralloc_connected_clients", Type: gauge, Help: "Currently served connections."},
		{Key: "total_connections_received", Val: s.accepted.Load(), Metric: "ralloc_connections_accepted_total", Type: counter, Help: "Connections accepted since start.", First: true},
		{Key: "total_commands_processed", Val: s.commands.Load(), Metric: "ralloc_commands_processed_total", Type: counter, Help: "Commands dispatched since start."},
	}
}

// keyspaceLen is the live record count summed over every shard.
func (s *Server) keyspaceLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.st.Len()
	}
	return n
}

// statsAll sums every shard's store counters into one keyspace-wide view.
func (s *Server) statsAll() kvstore.Stats {
	var t kvstore.Stats
	for _, sh := range s.shards {
		t.Add(sh.st.Stats())
	}
	return t
}

func (s *Server) keyspaceRows() []obs.Row {
	st := s.statsAll()
	// The per-type census of the live keyspace costs a full map walk under
	// the stripe locks (it skips stamp-expired corpses, so the three can sum
	// below records until the cycle reclaims them): one walk, and only when
	// INFO renders this section — never for a scrape.
	census := sync.OnceValue(func() (tc kvstore.TypeCounts) {
		for _, sh := range s.shards {
			c := sh.st.CountTypes()
			tc.Strings += c.Strings
			tc.Hashes += c.Hashes
			tc.Lists += c.Lists
		}
		return tc
	})
	return []obs.Row{
		{Key: "records", Val: s.keyspaceLen(), Metric: "ralloc_keyspace_records", Type: gauge, Help: "Live records in the keyspace."},
		{Key: "keys_string", Lazy: func() any { return census().Strings }},
		{Key: "keys_hash", Lazy: func() any { return census().Hashes }},
		{Key: "keys_list", Lazy: func() any { return census().Lists }},
		{Key: "bounded", Val: s.shards[0].st.Bounded()},
		{Key: "bytes", Val: st.Bytes},
		{Key: "hits", Val: st.Hits},
		{Key: "misses", Val: st.Misses},
		{Key: "sets", Val: st.Sets},
		{Key: "deletes", Val: st.Deletes},
		{Key: "evictions", Val: st.Evictions},
	}
}

func (s *Server) expiresRows() []obs.Row {
	st := s.statsAll()
	return []obs.Row{
		{Key: "keys_with_ttl", Val: st.TTLd},
		{Key: "expired_lazy", Val: st.Expired},
		{Key: "expired_reclaimed", Val: st.Reclaimed},
		{Key: "expiry_cycles", Val: s.expiryCycles.Load(), Metric: "ralloc_expiry_cycles_total", Type: counter, Help: "Active-expiry cycles completed."},
		{Key: "expiry_last_cycle_us", Val: time.Duration(s.expiryLastNs.Load()), Metric: "ralloc_expiry_last_cycle_seconds", Type: gauge, Help: "Last expiry cycle duration."},
	}
}

// persistenceRows: checkpoint counts and the last checkpoint's phase timings
// and copy volumes (the Server fields say what each measures), what the heaps
// are backed by, and the units this start rolled back.
func (s *Server) persistenceRows() []obs.Row {
	backing, mapped := "slice", 0
	if s.shards[0].a.Region().Mapped() {
		backing, mapped = "mmap", 1
	}
	return []obs.Row{
		{Key: "checkpoints", Val: s.saves.Load(), Metric: "ralloc_checkpoints_total", Type: counter, Help: "Checkpoints (SAVE) completed successfully.", First: true},
		{Key: "checkpoint_errors", Val: s.saveErrs.Load(), Metric: "ralloc_checkpoint_errors_total", Type: counter, Help: "Checkpoints that returned an error.", First: true},
		{Key: "last_checkpoint_unix", Val: s.lastSaveUnix.Load()},
		{Key: "last_checkpoint_quiesce_us", Val: time.Duration(s.saveQuiesceNs.Load()), Metric: "ralloc_checkpoint_last_quiesce_seconds", Type: gauge, Help: "Last checkpoint barrier-acquire wait."},
		{Key: "last_checkpoint_total_us", Val: time.Duration(s.saveTotalNs.Load()), Metric: "ralloc_checkpoint_last_duration_seconds", Type: gauge, Help: "Last checkpoint duration end to end.", First: true},
		{Key: "last_checkpoint_fence_us", Val: time.Duration(s.saveFenceNs.Load()), Metric: "ralloc_checkpoint_last_fence_seconds", Type: gauge, Help: "Last online checkpoint cut-over fence duration."},
		{Key: "last_checkpoint_fence_lines", Val: s.saveFenceRecopied.Load()},
		{Key: "last_checkpoint_rounds", Val: s.saveRounds.Load()},
		{Key: "checkpoint_lines_copied", Val: s.saveLines.Load(), Metric: "ralloc_checkpoint_lines_copied_total", Type: counter, Help: "Cache lines streamed by online checkpoints."},
		{Key: "checkpoint_lines_recopied", Val: s.saveRecopied.Load(), Metric: "ralloc_checkpoint_lines_recopied_total", Type: counter, Help: "Cache lines re-copied after the write barrier marked them dirty."},
		{Key: "heap_backing", Val: backing},
		{Val: mapped, Metric: "ralloc_heap_mapped", Type: gauge, Help: "1 when the heaps are mapped files (heap_backing:mmap), 0 when slices."},
		{Key: "journal_units_undone", Val: s.unitsUndone.Load(), Metric: "ralloc_journal_units_undone_total", Type: counter, Help: "Units a crash cut short, rolled back at start from the undo journal."},
	}
}

// clusterRows: the shard count and, per shard, the balance view DBSIZE and
// INFO keyspace aggregate away.
func (s *Server) clusterRows() []obs.Row {
	rows := []obs.Row{{Key: "cluster_shards", Val: len(s.shards), Metric: "ralloc_shard_count", Type: gauge, Help: "Shards serving the keyspace."}}
	for _, sh := range s.shards {
		rows = append(rows, obs.Row{Key: "shard", Member: strconv.Itoa(sh.idx), Label: "shard", Sub: []obs.Row{
			{Key: "records", Val: sh.st.Len(), Metric: "ralloc_shard_records", Type: gauge, Help: "Live records per shard."},
			{Key: "bytes", Val: sh.st.Stats().Bytes, Metric: "ralloc_shard_bytes", Type: gauge, Help: "Record byte footprint per shard."},
			{Key: "checkpoints", Val: sh.saves.Load(), Metric: "ralloc_shard_checkpoints_total", Type: counter, Help: "Checkpoints completed per shard."},
			{Key: "last_fence_us", Val: time.Duration(sh.fenceNs.Load()), Metric: "ralloc_shard_last_fence_seconds", Type: gauge, Help: "Last checkpoint fence duration per shard."},
			{Key: "repl_writes", Val: sh.replWrites.Load(), Metric: "ralloc_shard_repl_writes_total", Type: counter, Help: "Replication feed entries attributed per shard."},
		}})
	}
	return rows
}

// calledCommands visits, in registry (name) order, every command that has
// been called, with one snapshot of its histogram.
func (s *Server) calledCommands(fn func(name string, snap *obs.HistSnapshot, errs uint64)) {
	for _, c := range commandList {
		bc := s.cmds[c.Name]
		snap := bc.stats.hist.Snapshot()
		if snap.Count != 0 {
			fn(strings.ToLower(c.Name), &snap, bc.stats.errs.Load())
		}
	}
}

// commandRows: calls, total and mean latency, and error replies per command,
// from every invocation (the INFO line format predates the histograms and is
// byte-compatible with existing parsers).
func (s *Server) commandRows() (rows []obs.Row) {
	s.calledCommands(func(name string, snap *obs.HistSnapshot, errs uint64) {
		rows = append(rows, obs.Row{Key: "cmdstat_", Member: name, Label: "cmd", Sub: []obs.Row{
			{Key: "calls", Val: snap.Count, Metric: "ralloc_command_calls_total", Type: counter, Help: "Calls per command."},
			{Key: "usec", Val: float64(snap.Sum) / 1e3, Format: "%.0f"},
			{Key: "usec_per_call", Val: snap.Mean() / 1e3, Format: "%.2f"},
			{Key: "errors", Val: errs, Metric: "ralloc_command_errors_total", Type: counter, Help: "Error replies per command."},
			{Val: snap, Metric: "ralloc_command_latency_seconds", Type: "histogram", Help: "Command execution latency."},
		}})
	})
	return rows
}

// latencyRows is Redis 7's latencystats: p50/p99/p99.9 per called command,
// interpolated from its histogram.
func (s *Server) latencyRows() (rows []obs.Row) {
	s.calledCommands(func(name string, snap *obs.HistSnapshot, _ uint64) {
		rows = append(rows, obs.Row{Key: "latency_percentiles_usec_", Member: name, Sub: []obs.Row{
			{Key: "p50", Val: snap.Quantile(0.50) / 1e3, Format: "%.3f"},
			{Key: "p99", Val: snap.Quantile(0.99) / 1e3, Format: "%.3f"},
			{Key: "p99.9", Val: snap.Quantile(0.999) / 1e3, Format: "%.3f"},
		}})
	})
	return rows
}

func (s *Server) slowlogRows() []obs.Row {
	return []obs.Row{{Val: s.slow.Len(), Metric: "ralloc_slowlog_length", Type: gauge, Help: "Entries currently retained in the slow log."}}
}

func (s *Server) replicationRows() []obs.Row {
	rs := s.repl
	if rs == nil {
		return []obs.Row{{Key: "repl_enabled", Val: 0}, {Key: "role", Val: "primary"}}
	}
	role, replica := "primary", rs.replica.Load()
	if replica {
		role = "replica"
	}
	// ifReplica keeps a key out of a primary's INFO: the four rows about the
	// upstream link exist on a replica only (their families on both).
	ifReplica := func(key string) string {
		if replica {
			return key
		}
		return ""
	}
	upstream, link, senders := rs.snapshot()
	linkUp := 0
	if link != nil && link.isUp() {
		linkUp = 1
	}
	off := rs.feed.Offset()
	var maxLag uint64
	replicas := make([]obs.Row, len(senders))
	for i, sd := range senders {
		acked := sd.acked.Load()
		lag := max(off, acked) - acked
		maxLag = max(maxLag, lag)
		replicas[i] = obs.Row{Key: "replica", Member: strconv.Itoa(i), Sub: []obs.Row{
			{Key: "sent_offset", Val: sd.sent.Load()}, {Key: "ack_offset", Val: acked}, {Key: "lag_bytes", Val: lag},
		}}
	}
	return append([]obs.Row{
		{Key: "repl_enabled", Val: 1},
		{Key: "role", Val: role},
		{Key: "repl_id", Val: fmt.Sprintf("%016x", rs.feed.ID())},
		{Key: "repl_offset", Val: off, Metric: "ralloc_repl_offset_bytes", Type: gauge, Help: "Replication feed end offset (applied offset on a replica)."},
		{Key: "repl_backlog_start", Val: rs.feed.StartOffset()},
		{Key: "repl_backlog_bytes", Val: rs.feed.BacklogLen(), Metric: "ralloc_repl_backlog_bytes", Type: gauge, Help: "Bytes retained in the replication backlog; a fresh primary retains none before its first full resync."},
		{Key: "repl_entries", Val: rs.feed.Entries(), Metric: "ralloc_repl_entries_total", Type: counter, Help: "Feed entries appended (propagated or applied)."},
		{Key: "full_syncs", Val: rs.fullSyncs.Load(), Metric: "ralloc_repl_full_syncs_total", Type: counter, Help: "Full resyncs served."},
		{Key: "partial_syncs", Val: rs.partialSyncs.Load(), Metric: "ralloc_repl_partial_syncs_total", Type: counter, Help: "Partial resyncs served from the backlog."},
		{Key: ifReplica("upstream"), Val: upstream},
		{Key: ifReplica("link_up"), Val: linkUp},
		{Key: ifReplica("applied_entries"), Val: rs.applied.Load()},
		{Key: ifReplica("apply_errors"), Val: rs.applyErrs.Load(), Metric: "ralloc_repl_apply_errors_total", Type: counter, Help: "Feed entries that failed to apply on this replica."},
		{Key: "connected_replicas", Val: len(senders), Metric: "ralloc_repl_connected_replicas", Type: gauge, Help: "Replication streams currently being served."},
		{Val: maxLag, Metric: "ralloc_repl_max_ack_lag_bytes", Type: gauge, Help: "Largest unacknowledged byte span across connected replicas."},
	}, replicas...)
}

// snapshot copies the mutable sender/link view out from under the lock for
// the stat rows.
func (rs *replState) snapshot() (upstream string, link *replicaLink, senders []*replSender) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for sd := range rs.senders {
		senders = append(senders, sd)
	}
	return rs.upstream, rs.link, senders
}
