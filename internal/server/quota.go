package server

import (
	"sync"
	"time"
)

// quotaSet implements per-tenant token buckets: each tenant accrues
// rate tokens per second up to burst, and each admitted query spends
// one. Buckets are created lazily on first sight of a tenant and
// refilled on demand from the configured clock, so there is no
// background goroutine to manage.
type quotaSet struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotaSet(rate, burst float64, now func() time.Time) *quotaSet {
	if burst < 1 {
		burst = 1
	}
	return &quotaSet{
		rate:    rate,
		burst:   burst,
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from tenant's bucket if available. When the
// bucket is dry it reports false plus how long until the next token
// accrues — the Retry-After hint. The clock is read before the lock is
// taken, so a request may bring an older reading than the bucket's last
// refill: it refills nothing and leaves last where it is, or the next
// request would be credited the same interval again.
func (q *quotaSet) allow(tenant string) (bool, time.Duration) {
	t := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: q.burst, last: t}
		q.buckets[tenant] = b
	}
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if q.rate <= 0 {
		// Unrefillable bucket: burst was the lifetime allowance.
		return false, time.Second
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}
