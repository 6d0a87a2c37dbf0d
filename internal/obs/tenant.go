package obs

import "sync/atomic"

// TenantMetrics tracks one tenant's query service experience: an
// end-to-end latency histogram plus outcome and SLO counters. Every
// field is lock-free, so the serving hot path never takes a lock;
// Snapshot freezes a consistent-enough view for /v1/stats and expvar
// scrapes.
type TenantMetrics struct {
	Latency *Histogram

	Served        atomic.Uint64 // queries answered 200
	Errored       atomic.Uint64 // queries answered 4xx/5xx other than rejections
	QuotaRejected atomic.Uint64 // 429s from the tenant's token bucket
	LoadShed      atomic.Uint64 // 429s from array-wide admission control
	SLOViolations atomic.Uint64 // served queries slower than the SLO target
}

// NewTenantMetrics returns a tenant's metrics with nothing observed.
func NewTenantMetrics() *TenantMetrics {
	return &TenantMetrics{Latency: NewLatencyHistogram()}
}

// ObserveServed records one successfully answered query: its
// end-to-end latency in seconds, and whether it violated the SLO
// target.
func (m *TenantMetrics) ObserveServed(seconds float64, sloViolated bool) {
	m.Latency.Observe(seconds)
	m.Served.Add(1)
	if sloViolated {
		m.SLOViolations.Add(1)
	}
}

// ObserveError records a query that failed for a non-admission reason.
func (m *TenantMetrics) ObserveError() { m.Errored.Add(1) }

// ObserveQuotaRejected records a 429 from the tenant's own quota.
func (m *TenantMetrics) ObserveQuotaRejected() { m.QuotaRejected.Add(1) }

// ObserveLoadShed records a 429 from array-wide admission control.
func (m *TenantMetrics) ObserveLoadShed() { m.LoadShed.Add(1) }

// Snapshot freezes the tenant's counters and latency distribution.
func (m *TenantMetrics) Snapshot() TenantSnapshot { return Load[TenantSnapshot](m) }

// TenantSnapshot is a frozen TenantMetrics.
type TenantSnapshot struct {
	Latency       HistSnapshot
	Served        uint64
	Errored       uint64
	QuotaRejected uint64
	LoadShed      uint64
	SLOViolations uint64
}
