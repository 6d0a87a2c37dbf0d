package exec

import (
	"encoding/json"
	"expvar"

	"repro/internal/bufferpool"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// Snapshot is a diffable point-in-time view of the engine: cumulative
// counters, shared-cache traffic, per-disk gauges with the
// declustering balance ratio, and the wall-clock latency histograms
// with their p50/p95/p99. Take one before and one after an interval
// and Sub them to get the interval's distribution.
type Snapshot struct {
	Stats Stats
	Cache bufferpool.Stats
	// Views counts the frames decoded pages live in (retire.go): all zero
	// unless the cache is smaller than the page set.
	Views rtree.ViewStats
	Disks []obs.DiskSnapshot
	// BalanceRatio is the busiest disk's served pages over the
	// per-disk mean — 1.0 is the perfectly declustered load the
	// paper's proximity-index placement aims for (§2.2).
	BalanceRatio float64
	// Faults is the degraded-mode telemetry: retries, mirror
	// redirects, hedged reads and the degraded-replica gauge.
	Faults obs.FaultSnapshot
	// Degraded mirrors Engine.ReplicaHealth: per logical disk and
	// mirror, whether the replica is currently skipped by reads.
	Degraded [][]bool
	// Storage is the file-backed replica I/O telemetry (page reads and
	// writes, data syncs); all-zero without Config.DataDir.
	Storage      obs.StorageSnapshot
	QueryLatency obs.HistSnapshot
	FetchLatency obs.HistSnapshot
	// ReadLatency is the per-replica-read service time (successful
	// reads only); its p99 drives the hedge delay.
	ReadLatency  obs.HistSnapshot
	StageLatency obs.HistSnapshot
	SemWait      obs.HistSnapshot
}

// Snapshot captures the engine's current observability state. It is
// safe to call concurrently with queries; counters are read
// individually, so a snapshot under load is a monitoring-grade (not
// transactionally exact) view.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Stats:        e.Stats(),
		Cache:        e.CacheStats(),
		Views:        e.ViewStats(),
		Disks:        make([]obs.DiskSnapshot, len(e.gauges)),
		Faults:       e.faults.Snapshot(),
		Degraded:     e.ReplicaHealth(),
		Storage:      e.storage.Snapshot(),
		QueryLatency: e.queryLat.Snapshot(),
		FetchLatency: e.fetchLat.Snapshot(),
		ReadLatency:  e.readLat.Snapshot(),
		StageLatency: e.stageLat.Snapshot(),
		SemWait:      e.semWait.Snapshot(),
	}
	served := make([]uint64, len(e.gauges))
	for d := range e.gauges {
		s.Disks[d] = e.gauges[d].Snapshot()
		served[d] = s.Disks[d].Served
	}
	s.BalanceRatio = obs.BalanceRatio(served)
	return s
}

// Sub diffs two snapshots of the same engine (s taken after prev):
// counters and histograms subtract, instantaneous gauges keep s's
// values, and the balance ratio is recomputed over the interval.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Stats:        s.Stats.Sub(prev.Stats),
		Cache:        subCacheStats(s.Cache, prev.Cache),
		Views:        s.Views.Sub(prev.Views),
		Disks:        make([]obs.DiskSnapshot, len(s.Disks)),
		Faults:       s.Faults.Sub(prev.Faults),
		Degraded:     s.Degraded, // instantaneous: keep the later view
		Storage:      s.Storage.Sub(prev.Storage),
		QueryLatency: s.QueryLatency.Sub(prev.QueryLatency),
		FetchLatency: s.FetchLatency.Sub(prev.FetchLatency),
		ReadLatency:  s.ReadLatency.Sub(prev.ReadLatency),
		StageLatency: s.StageLatency.Sub(prev.StageLatency),
		SemWait:      s.SemWait.Sub(prev.SemWait),
	}
	served := make([]uint64, len(s.Disks))
	for d := range s.Disks {
		p := obs.DiskSnapshot{}
		if d < len(prev.Disks) {
			p = prev.Disks[d]
		}
		out.Disks[d] = s.Disks[d].Sub(p)
		served[d] = out.Disks[d].Served
	}
	out.BalanceRatio = obs.BalanceRatio(served)
	return out
}

func subCacheStats(a, b bufferpool.Stats) bufferpool.Stats {
	return bufferpool.Stats{
		Hits:      a.Hits - b.Hits,
		Misses:    a.Misses - b.Misses,
		Evictions: a.Evictions - b.Evictions,
		Inserts:   a.Inserts - b.Inserts,
	}
}

// expvarView is the JSON shape published under /debug/vars: the full
// snapshot plus the headline percentiles pre-derived, so a dashboard
// can scrape p50/p95/p99 without reimplementing the bucket math.
type expvarView struct {
	Snapshot
	QueryP50, QueryP95, QueryP99 float64
	FetchP50, FetchP95, FetchP99 float64
}

// PublishExpvar publishes the engine's live snapshot as an expvar
// under the given name (conventionally "engine"), visible on any
// /debug/vars endpoint — e.g. the server started by
// obs.StartDebugServer. Like expvar.Publish it must be called at most
// once per name per process; it panics on a duplicate name.
func (e *Engine) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any {
		s := e.Snapshot()
		v := expvarView{
			Snapshot: s,
			QueryP50: s.QueryLatency.P50(), QueryP95: s.QueryLatency.P95(), QueryP99: s.QueryLatency.P99(),
			FetchP50: s.FetchLatency.P50(), FetchP95: s.FetchLatency.P95(), FetchP99: s.FetchLatency.P99(),
		}
		// expvar renders via JSON; pre-marshal to keep the contract
		// explicit and catch unserializable fields in tests.
		buf, err := json.Marshal(v)
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return json.RawMessage(buf)
	}))
}
