package obs

import "testing"

func TestTenantMetrics(t *testing.T) {
	a := NewTenantMetrics()
	a.ObserveServed(0.001, false)
	a.ObserveServed(0.250, true)
	a.ObserveError()
	a.ObserveQuotaRejected()
	a.ObserveQuotaRejected()
	a.ObserveLoadShed()

	as := a.Snapshot()
	if as.Served != 2 || as.Errored != 1 || as.QuotaRejected != 2 ||
		as.LoadShed != 1 || as.SLOViolations != 1 {
		t.Fatalf("snapshot = %+v", as)
	}
	if as.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", as.Latency.Count)
	}
	if bs := NewTenantMetrics().Snapshot(); bs.Served != 0 || bs.Latency.Count != 0 {
		t.Fatalf("fresh metrics snapshot = %+v", bs)
	}
}
