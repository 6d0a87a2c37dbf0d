package obs

import "sync/atomic"

// FaultCounters is the degraded-mode telemetry of a replicated read
// path: how often fetches retried, redirected to a mirror, hedged, and
// how many replicas are currently marked degraded. All fields are
// atomics; do not copy a FaultCounters once in use.
type FaultCounters struct {
	// Retries counts re-attempts of a failed read on the same replica
	// (the first attempt is not a retry).
	Retries atomic.Uint64
	// Redirects counts fetches served (or attempted) away from their
	// primary replica because the primary failed or was degraded.
	Redirects atomic.Uint64
	// Hedges counts duplicate reads fired at a mirror because the
	// primary had not answered within the hedge delay.
	Hedges atomic.Uint64
	// HedgeWins counts hedged reads whose mirror answered first.
	HedgeWins atomic.Uint64
	// IntegrityFailures counts replica reads that returned a
	// well-formed page other than the one asked for (a misdirected
	// read caught by the read path's node-id identity check).
	IntegrityFailures atomic.Uint64
	// DisksDegraded is the number of replicas currently marked
	// degraded (skipped by reads) — a gauge, not a cumulative counter.
	DisksDegraded atomic.Int64
}

// FaultSnapshot is a point-in-time copy of a FaultCounters.
type FaultSnapshot struct {
	Retries           uint64
	Redirects         uint64
	Hedges            uint64
	HedgeWins         uint64
	IntegrityFailures uint64
	DisksDegraded     int64
}
