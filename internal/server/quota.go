package server

import (
	"time"

	"repro/internal/lockrank"
	"repro/internal/obs"
)

// maxTenants caps the tenant table and maxTenantKeyBytes the keys it
// stores. The API key is chosen by the client, and every key the table
// admits keeps itself, a latency histogram and a bucket for the life of
// the server (and /v1/stats echoes it); keys that arrive once the table
// is full, and keys longer than maxTenantKeyBytes, share one overflow
// row, its metrics and its bucket.
const (
	maxTenants        = 1024
	maxTenantKeyBytes = 256
)

// TenantTable is the server's per-tenant state: a row per API key with
// the tenant's service metrics and, when quotas are on, its token
// bucket — each tenant accrues rate tokens per second up to burst, and
// each admitted query spends one. One map under one lock answers both
// questions a request asks, so admission is a single lookup. Rows are
// created on first sight of a key and buckets refilled on demand from
// the configured clock, so there is no background goroutine to manage.
type TenantTable struct {
	rate  float64 // tokens per second; 0 disables quotas
	burst float64 // bucket capacity
	now   func() time.Time

	mu       lockrank.Mutex[lockrank.Leaf]
	rows     map[string]*tenant // guarded by mu; at most maxTenants rows
	overflow *tenant            // guarded by mu; nil until a key overflows
}

// tenant is one row of the table. The bucket fields are read and
// written under TenantTable.mu.
type tenant struct {
	metrics *obs.TenantMetrics
	tokens  float64
	last    time.Time // the clock reading the bucket was last refilled at
}

// newTenantTable builds the table; rate <= 0 disables quotas, and
// burst <= 0 means max(rate, 1).
func newTenantTable(rate, burst float64, now func() time.Time) *TenantTable {
	if burst <= 0 {
		burst = rate
	}
	return &TenantTable{
		rate:  max(rate, 0),
		burst: max(burst, 1),
		now:   now,
		rows:  make(map[string]*tenant),
	}
}

// admit finds key's row, creating it (or, in a full table or for a
// long key, the overflow row) on first sight, and when quotas are on
// spends one token from its bucket. It returns the row's metrics and
// whether the request may proceed; a refused request also gets how long
// until the next token accrues — the Retry-After hint. The clock is read before the lock is
// taken, so a request may bring an older reading than the bucket's last
// refill: it refills nothing and leaves last where it is, or the next
// request would be credited the same interval again.
func (t *TenantTable) admit(key string) (*obs.TenantMetrics, bool, time.Duration) {
	var now time.Time
	if t.rate > 0 {
		now = t.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[key]
	if !ok {
		switch {
		case len(t.rows) < maxTenants && len(key) <= maxTenantKeyBytes:
			row = t.newRow(now)
			t.rows[key] = row
		case t.overflow == nil:
			t.overflow = t.newRow(now)
			row = t.overflow
		default:
			row = t.overflow
		}
	}
	if t.rate == 0 {
		return row.metrics, true, 0
	}
	if dt := now.Sub(row.last).Seconds(); dt > 0 {
		row.tokens = min(row.tokens+dt*t.rate, t.burst)
		row.last = now
	}
	if row.tokens >= 1 {
		row.tokens--
		return row.metrics, true, 0
	}
	wait := time.Duration((1 - row.tokens) / t.rate * float64(time.Second))
	return row.metrics, false, max(wait, time.Millisecond)
}

func (t *TenantTable) newRow(now time.Time) *tenant {
	return &tenant{metrics: obs.NewTenantMetrics(), tokens: t.burst, last: now}
}

// Snapshot freezes every named tenant's metrics, keyed by API key. The
// overflow row is not among them: /v1/stats reports it on its own.
func (t *TenantTable) Snapshot() map[string]obs.TenantSnapshot {
	named, _ := t.snapshot()
	return named
}

// snapshot freezes the named rows and the overflow row (nil when no key
// has overflowed). The histogram copies happen outside the lock so a
// scrape never stalls admission.
func (t *TenantTable) snapshot() (map[string]obs.TenantSnapshot, *obs.TenantSnapshot) {
	t.mu.Lock()
	live := make(map[string]*obs.TenantMetrics, len(t.rows))
	for key, row := range t.rows {
		live[key] = row.metrics
	}
	var overflow *obs.TenantMetrics
	if t.overflow != nil {
		overflow = t.overflow.metrics
	}
	t.mu.Unlock()
	named := make(map[string]obs.TenantSnapshot, len(live))
	for key, m := range live {
		named[key] = m.Snapshot()
	}
	if overflow == nil {
		return named, nil
	}
	snap := overflow.Snapshot()
	return named, &snap
}
