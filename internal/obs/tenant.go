package obs

import "sync/atomic"

// TenantMetrics tracks one tenant's query service experience: an
// end-to-end latency histogram plus outcome and SLO counters. Fields
// are unexported behind atomic accessors so the serving hot path never
// takes a lock; Snapshot freezes a consistent-enough view for /v1/stats
// and expvar scrapes.
type TenantMetrics struct {
	latency *Histogram

	served        atomic.Uint64 // queries answered 200
	errored       atomic.Uint64 // queries answered 4xx/5xx other than rejections
	quotaRejected atomic.Uint64 // 429s from the tenant's token bucket
	loadShed      atomic.Uint64 // 429s from array-wide admission control
	sloViolations atomic.Uint64 // served queries slower than the SLO target
}

// NewTenantMetrics returns a tenant's metrics with nothing observed.
func NewTenantMetrics() *TenantMetrics {
	return &TenantMetrics{latency: NewLatencyHistogram()}
}

// ObserveServed records one successfully answered query: its
// end-to-end latency in seconds, and whether it violated the SLO
// target.
func (m *TenantMetrics) ObserveServed(seconds float64, sloViolated bool) {
	m.latency.Observe(seconds)
	m.served.Add(1)
	if sloViolated {
		m.sloViolations.Add(1)
	}
}

// ObserveError records a query that failed for a non-admission reason.
func (m *TenantMetrics) ObserveError() { m.errored.Add(1) }

// ObserveQuotaRejected records a 429 from the tenant's own quota.
func (m *TenantMetrics) ObserveQuotaRejected() { m.quotaRejected.Add(1) }

// ObserveLoadShed records a 429 from array-wide admission control.
func (m *TenantMetrics) ObserveLoadShed() { m.loadShed.Add(1) }

// Snapshot freezes the tenant's counters and latency distribution.
func (m *TenantMetrics) Snapshot() TenantSnapshot {
	return TenantSnapshot{
		Latency:       m.latency.Snapshot(),
		Served:        m.served.Load(),
		Errored:       m.errored.Load(),
		QuotaRejected: m.quotaRejected.Load(),
		LoadShed:      m.loadShed.Load(),
		SLOViolations: m.sloViolations.Load(),
	}
}

// TenantSnapshot is a frozen TenantMetrics.
type TenantSnapshot struct {
	Latency       HistSnapshot
	Served        uint64
	Errored       uint64
	QuotaRejected uint64
	LoadShed      uint64
	SLOViolations uint64
}
