// Package bufferpool provides a small LRU page cache with hit/miss
// accounting. The query executors use it to model memory-resident
// directory pages: the paper's multiplexed R*-tree keeps the root at the
// CPU, and caching further directory levels is a natural extension
// studied by the ablation benchmarks.
//
// There is one LRU implementation (lru) with two locked fronts: Pool
// puts a single mutex around it, Sharded spreads keys over independently
// locked shards and adds singleflight fetch deduplication.
package bufferpool

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats counts cache traffic.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64
}

// HitRate returns hits / (hits+misses), or 0 when the pool is untouched.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// lru is the fixed-capacity LRU core behind Pool and Sharded. It has no
// lock of its own: the front that embeds it serializes every call.
type lru[K comparable, V any] struct {
	capacity int
	ll       *list.List
	items    map[K]*list.Element
	stats    Stats
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) lru[K, V] {
	return lru[K, V]{capacity: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// lookup returns key's value, promoting it to most-recently-used and
// counting a hit; a miss is counted only when countMiss is set.
func (c *lru[K, V]) lookup(key K, countMiss bool) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	if countMiss {
		c.stats.Misses++
	}
	var zero V
	return zero, false
}

// put inserts or refreshes key. When the cache is full the least
// recently used entry is evicted: its list element and record are
// re-keyed for the newcomer, so an insert into a full cache allocates
// nothing. The evicted value is returned; a value replaced by a refresh
// is not (it is left to the collector).
func (c *lru[K, V]) put(key K, val V) (evicted V, ok bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return evicted, false
	}
	c.stats.Inserts++
	if c.ll.Len() < c.capacity {
		c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key, val})
		return evicted, false
	}
	oldest := c.ll.Back()
	ent := oldest.Value.(*lruEntry[K, V])
	delete(c.items, ent.key)
	evicted = ent.val
	ent.key, ent.val = key, val
	c.ll.MoveToFront(oldest)
	c.items[key] = oldest
	c.stats.Evictions++
	return evicted, true
}

func (c *lru[K, V]) remove(key K) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Pool is a fixed-capacity LRU cache from K to V. The zero value is not
// usable; call New. A single mutex guards every operation, which makes
// the pool safe to share between the concurrent engine's query
// goroutines; for heavy multi-core traffic prefer Sharded, which
// spreads the lock over independently guarded shards.
type Pool[K comparable, V any] struct {
	mu  sync.Mutex
	lru lru[K, V] // guarded by mu
}

// New returns a pool that holds at most capacity entries.
// Capacity must be positive.
func New[K comparable, V any](capacity int) *Pool[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufferpool: capacity must be positive, got %d", capacity))
	}
	return &Pool[K, V]{lru: newLRU[K, V](capacity)}
}

// Get looks up key, promoting it to most-recently-used on a hit.
func (p *Pool[K, V]) Get(key K) (V, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.lookup(key, true)
}

// Probe is Get without the miss accounting: a hit is promoted and
// counted, a miss counts nothing. It is for a caller that follows a
// miss with a counting lookup of the same key (Get, GetOrFetch), so
// the request still counts exactly one hit or one miss.
func (p *Pool[K, V]) Probe(key K) (V, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.lookup(key, false)
}

// Contains reports whether key is cached without touching recency or
// statistics.
func (p *Pool[K, V]) Contains(key K) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.lru.items[key]
	return ok
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the pool is full (allocation-free once full).
func (p *Pool[K, V]) Put(key K, val V) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.put(key, val)
}

// Remove drops key from the pool if present.
func (p *Pool[K, V]) Remove(key K) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.remove(key)
}

// Len returns the number of cached entries.
func (p *Pool[K, V]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.ll.Len()
}

// Capacity returns the configured maximum size.
func (p *Pool[K, V]) Capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.capacity
}

// Stats returns a copy of the traffic counters.
func (p *Pool[K, V]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.stats
}

// Reset empties the pool and clears statistics.
func (p *Pool[K, V]) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru = newLRU[K, V](p.lru.capacity)
}
