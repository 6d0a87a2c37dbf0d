package bufferpool

import (
	"fmt"
	"sync"
)

// Sharded is a thread-safe LRU cache built from independently locked
// Pool shards, with singleflight-style fetch deduplication: when many
// goroutines miss on the same key simultaneously, exactly one runs the
// fetch and the rest wait for its result. The concurrent query engine
// (package exec) uses it as its shared decoded-page cache — the paper's
// model has no buffer pool, but a real multi-client server would thrash
// the disks without one.
//
// Keys are mapped to shards by the caller-supplied hash function, so
// the type works for any comparable key without reflection.
type Sharded[K comparable, V any] struct {
	hash   func(K) uint64
	shards []*shard[K, V]
}

type shard[K comparable, V any] struct {
	mu       sync.Mutex
	pool     *Pool[K, V]
	inflight map[K]*flight[V] // guarded by mu
}

// flight is one in-progress fetch; waiters block on done, which the
// fetching caller releases once val and err are set.
type flight[V any] struct {
	done sync.WaitGroup
	val  V
	err  error
}

// NewSharded builds a sharded pool with the given total capacity spread
// evenly over numShards shards (each shard holds at least one entry).
// The hash function distributes keys across shards; it must be safe for
// concurrent use (pure functions are).
func NewSharded[K comparable, V any](capacity, numShards int, hash func(K) uint64) *Sharded[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufferpool: capacity must be positive, got %d", capacity))
	}
	if numShards <= 0 {
		panic(fmt.Sprintf("bufferpool: numShards must be positive, got %d", numShards))
	}
	if numShards > capacity {
		numShards = capacity
	}
	if hash == nil {
		panic("bufferpool: hash function required")
	}
	s := &Sharded[K, V]{hash: hash, shards: make([]*shard[K, V], numShards)}
	per := (capacity + numShards - 1) / numShards
	for i := range s.shards {
		s.shards[i] = &shard[K, V]{
			pool:     New[K, V](per),
			inflight: make(map[K]*flight[V]),
		}
	}
	return s
}

func (s *Sharded[K, V]) shardOf(key K) *shard[K, V] {
	return s.shards[s.hash(key)%uint64(len(s.shards))]
}

// Get looks up key, promoting it on a hit. Safe for concurrent use.
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.Get(key)
}

// Probe is Get that counts only a hit (see Pool.Probe). The engine
// probes on the querying goroutine and sends a miss to the page's disk
// worker, whose GetOrFetchHit then counts the request's one miss — or
// its one hit, when another fetch filled the page in between.
func (s *Sharded[K, V]) Probe(key K) (V, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.Probe(key)
}

// Put inserts or refreshes key. Safe for concurrent use.
func (s *Sharded[K, V]) Put(key K, val V) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pool.Put(key, val)
}

// Remove drops key if present.
func (s *Sharded[K, V]) Remove(key K) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pool.Remove(key)
}

// GetOrFetch returns the cached value for key, or runs fetch to produce
// it. Concurrent callers for the same key are deduplicated: one runs
// fetch, the others wait and share its result. A successful fetch is
// admitted to the cache; a failed fetch is not, and the shared error is
// returned to every waiter of that flight (later callers retry).
func (s *Sharded[K, V]) GetOrFetch(key K, fetch func() (V, error)) (V, error) {
	v, _, err := s.GetOrFetchHit(key, fetch)
	return v, err
}

// GetOrFetchHit is GetOrFetch with cache-hit attribution: hit is true
// when the value was served without running fetch in this call — a
// resident entry, or the shared result of another caller's in-progress
// flight. The engine's telemetry uses it to label per-fetch trace
// events without a second cache probe.
func (s *Sharded[K, V]) GetOrFetchHit(key K, fetch func() (V, error)) (v V, hit bool, err error) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if v, ok := sh.pool.Get(key); ok {
		sh.mu.Unlock()
		return v, true, nil
	}
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		f.done.Wait()
		return f.val, true, f.err
	}
	f := new(flight[V])
	f.done.Add(1)
	sh.inflight[key] = f
	sh.mu.Unlock()

	f.val, f.err = fetch()

	sh.mu.Lock()
	if f.err == nil {
		sh.pool.Put(key, f.val)
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
	f.done.Done()
	return f.val, false, f.err
}

// Len returns the total number of cached entries across shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.pool.Len()
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the summed shard capacities (>= the requested total
// due to even rounding).
func (s *Sharded[K, V]) Capacity() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.pool.Capacity()
	}
	return n
}

// Stats aggregates the traffic counters of all shards.
func (s *Sharded[K, V]) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.pool.Stats()
		sh.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Inserts += st.Inserts
	}
	return out
}
