package obs

import "repro/internal/lockrank"

// Collector is a QueryObserver that records every event, safe for
// concurrent use. Tests use it to assert on trace sequences; it is
// also handy for ad-hoc profiling of a single query.
type Collector struct {
	mu     lockrank.Mutex[lockrank.Leaf]
	events []Event // guarded by mu
}

// Observe implements QueryObserver.
func (c *Collector) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// CoreSchema returns the recorded core-schema events (driver extras
// dropped, timing fields zeroed) — the canonical form compared across
// drivers.
func (c *Collector) CoreSchema() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, len(c.events))
	for _, e := range c.events {
		if !e.Core() {
			continue
		}
		out = append(out, e.Schema())
	}
	return out
}
