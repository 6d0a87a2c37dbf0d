// Package bufferpool provides a small LRU page cache with hit/miss
// accounting. The paper's model has no buffer pool and neither have the
// executions or the engine (levels are pinned with
// query.Options.CachedLevels); the benchmark times the cache's hit path.
//
// There is one LRU implementation (lru) and one locked front over it:
// Sharded spreads keys over independently locked shards and adds
// singleflight fetch deduplication. A one-shard Sharded is a single LRU
// behind a single mutex.
package bufferpool

import "container/list"

// Stats counts cache traffic.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64
}

// lru is the fixed-capacity LRU core of each Sharded shard. It has no
// lock of its own: the shard that embeds it serializes every call.
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
// counting a hit or a miss.
func (c *lru[K, V]) lookup(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// put inserts or refreshes key. When the cache is full the least
// recently used entry is evicted: its list element and record are
// re-keyed for the newcomer, so an insert into a full cache allocates
// nothing.
func (c *lru[K, V]) put(key K, val V) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.stats.Inserts++
	if c.ll.Len() < c.capacity {
		c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key, val})
		return
	}
	oldest := c.ll.Back()
	ent := oldest.Value.(*lruEntry[K, V])
	delete(c.items, ent.key)
	ent.key, ent.val = key, val
	c.ll.MoveToFront(oldest)
	c.items[key] = oldest
	c.stats.Evictions++
}
