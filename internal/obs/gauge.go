package obs

import "sync/atomic"

// DiskGauges is the live telemetry of one disk's fetch path: how many
// jobs are queued, how many are being served right now, and the
// cumulative serve/cancel counts. A job is a real read: the engine
// serves a page resident in its cache on the querying goroutine, which
// moves Served but never Queued or InFlight. All fields are atomics; a
// DiskGauges must not be copied once in use (index into a slice
// instead).
type DiskGauges struct {
	// Queued counts jobs submitted to the disk's queue and not yet
	// picked up by a worker (includes submitters blocked on a full
	// queue — exactly the backpressure a hot disk exerts). Cache hits
	// are never queued.
	Queued atomic.Int64
	// InFlight counts jobs a worker is serving at this instant: reads
	// the cache could not answer.
	InFlight atomic.Int64
	// Served counts pages of this disk delivered to queries, by the
	// disk's workers or from the page cache (cumulative) — the load the
	// declustering placed on the disk, whoever answered.
	Served atomic.Uint64
	// Cancelled counts jobs abandoned because their query's context
	// was cancelled — either before a worker picked them up or while
	// the fetch was in flight (cumulative).
	Cancelled atomic.Uint64
	// Failed counts jobs that ended with a real I/O error after the
	// read path exhausted every replica, retry and hedge (cumulative).
	Failed atomic.Uint64
}

// Snapshot freezes the gauges.
func (g *DiskGauges) Snapshot() DiskSnapshot { return Load[DiskSnapshot](g) }

// DiskSnapshot is a point-in-time copy of one disk's gauges.
type DiskSnapshot struct {
	Queued    int64
	InFlight  int64
	Served    uint64
	Cancelled uint64
	Failed    uint64
}

// Sub diffs two snapshots of the same disk: counters subtract,
// instantaneous gauges keep the later value.
func (s DiskSnapshot) Sub(prev DiskSnapshot) DiskSnapshot { return Diff(s, prev) }

// BalanceRatio is the declustering load-balance metric: the busiest
// disk's served-page count over the per-disk mean. 1.0 is a perfectly
// balanced array (the goal of the paper's proximity-index placement);
// N on an N-disk array means one disk took all the load. Returns 0
// when nothing was served.
func BalanceRatio(served []uint64) float64 {
	if len(served) == 0 {
		return 0
	}
	var total, max uint64
	for _, s := range served {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(served))
	return float64(max) / mean
}
