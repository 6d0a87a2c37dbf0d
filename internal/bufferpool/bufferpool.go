// Package bufferpool provides a small LRU page cache with hit/miss
// accounting. The query executors use it to model memory-resident
// directory pages: the paper's multiplexed R*-tree keeps the root at the
// CPU, and caching further directory levels is a natural extension
// studied by the ablation benchmarks.
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

// Pool is a fixed-capacity LRU cache from K to V. The zero value is not
// usable; call New. A single mutex guards every operation, which makes
// the pool safe to share between the concurrent engine's query
// goroutines; for heavy multi-core traffic prefer Sharded, which
// spreads the lock over independently guarded shards.
type Pool[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List          // guarded by mu
	items    map[K]*list.Element // guarded by mu
	stats    Stats               // guarded by mu
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// New returns a pool that holds at most capacity entries.
// Capacity must be positive.
func New[K comparable, V any](capacity int) *Pool[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufferpool: capacity must be positive, got %d", capacity))
	}
	return &Pool[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Get looks up key, promoting it to most-recently-used on a hit.
func (p *Pool[K, V]) Get(key K) (V, bool) { return p.lookup(key, true) }

// Probe is Get without the miss accounting: a hit is promoted and
// counted, a miss counts nothing. It is for a caller that follows a
// miss with a counting lookup of the same key (Get, GetOrFetch), so
// the request still counts exactly one hit or one miss.
func (p *Pool[K, V]) Probe(key K) (V, bool) { return p.lookup(key, false) }

func (p *Pool[K, V]) lookup(key K, countMiss bool) (V, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		p.ll.MoveToFront(el)
		p.stats.Hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	if countMiss {
		p.stats.Misses++
	}
	var zero V
	return zero, false
}

// Contains reports whether key is cached without touching recency or
// statistics.
func (p *Pool[K, V]) Contains(key K) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.items[key]
	return ok
}

// Put inserts or refreshes key. When the pool is full the least recently
// used entry is evicted: its list element and record are re-keyed for
// the newcomer, so an insert into a full pool allocates nothing.
func (p *Pool[K, V]) Put(key K, val V) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		p.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	p.stats.Inserts++
	if p.ll.Len() < p.capacity {
		p.items[key] = p.ll.PushFront(&lruEntry[K, V]{key, val})
		return
	}
	oldest := p.ll.Back()
	ent := oldest.Value.(*lruEntry[K, V])
	delete(p.items, ent.key)
	ent.key, ent.val = key, val
	p.ll.MoveToFront(oldest)
	p.items[key] = oldest
	p.stats.Evictions++
}

// Remove drops key from the pool if present.
func (p *Pool[K, V]) Remove(key K) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		p.ll.Remove(el)
		delete(p.items, key)
	}
}

// Len returns the number of cached entries.
func (p *Pool[K, V]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len()
}

// Capacity returns the configured maximum size.
func (p *Pool[K, V]) Capacity() int { return p.capacity }

// Stats returns a copy of the traffic counters.
func (p *Pool[K, V]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Reset empties the pool and clears statistics.
func (p *Pool[K, V]) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ll.Init()
	p.items = make(map[K]*list.Element)
	p.stats = Stats{}
}
