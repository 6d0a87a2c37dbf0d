package bufferpool

import (
	"fmt"
	"sync"
)

// Sharded is a thread-safe LRU cache built from independently locked
// shards of the package's LRU core, with singleflight-style fetch
// deduplication: when many goroutines miss on the same key
// simultaneously, exactly one runs the fetch and the rest wait for its
// result. The concurrent query engine (package exec) uses it as its
// shared decoded-page cache — the paper's model has no buffer pool, but
// a real multi-client server would thrash the disks without one.
//
// Keys are mapped to shards by the caller-supplied hash function, so
// the type works for any comparable key without reflection.
type Sharded[K comparable, V any] struct {
	hash      func(K) uint64
	shards    []*shard[K, V]
	onEvict   func(V)      // see OnEvict
	onHandOut func(V, int) // see OnHandOut
}

// shard is one lock's worth of the cache: every operation on a key
// takes exactly this mutex.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	lru      lru[K, V]        // guarded by mu
	inflight map[K]*flight[V] // guarded by mu
	free     *flight[V]       // guarded by mu: recycled flight records
}

// flight is one in-progress fetch; waiters block on done, which the
// fetching caller releases once val and err are set. Records are
// recycled through the shard's free list: whoever is last to need one —
// the fetching caller when nobody joined, else the last waiter to have
// read the result — puts it back, so a miss allocates nothing.
type flight[V any] struct {
	done    sync.WaitGroup
	val     V
	err     error
	waiters int        // joined callers that have not read the result yet (under the shard's lock)
	next    *flight[V] // free-list link
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
			lru:      newLRU[K, V](per),
			inflight: make(map[K]*flight[V]),
		}
	}
	return s
}

// OnEvict installs a hook that receives every value the LRU evicts to
// make room, exactly once, after the value has left the cache and
// outside the shard lock (so the hook may take locks of its own). It is
// the hand-over point for an owner that recycles values. Values that
// leave any other way — refreshed by Put, dropped by Remove — are not
// reported: they go to the collector. Call it once, before the cache is
// shared between goroutines.
func (s *Sharded[K, V]) OnEvict(hook func(V)) { s.onEvict = hook }

// OnHandOut installs a hook that is told of every value the cache hands
// to a caller, with the number of callers it goes to: 1 for a resident
// entry (Get, Probe, GetOrFetchHit), and for a fetched value the fetching
// caller plus everyone who waited on its flight — exact, because the
// hook runs as the flight leaves the map. It runs under the shard's
// lock, before the value can be evicted, so an owner that counts its
// values' readers (and learns of evictions through OnEvict) never sees
// an eviction overtake the count. It must take no lock and not call
// back into the cache: one atomic add is what it is for. Call it once,
// before the cache is shared between goroutines.
func (s *Sharded[K, V]) OnHandOut(hook func(v V, callers int)) { s.onHandOut = hook }

// handOut reports a resident value about to be returned to one caller.
// The shard's lock is held.
func (s *Sharded[K, V]) handOut(v V, ok bool) (V, bool) {
	if ok && s.onHandOut != nil {
		s.onHandOut(v, 1)
	}
	return v, ok
}

func (s *Sharded[K, V]) shardOf(key K) *shard[K, V] {
	return s.shards[s.hash(key)%uint64(len(s.shards))]
}

// Get looks up key, promoting it on a hit. Safe for concurrent use.
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.handOut(sh.lru.lookup(key, true))
}

// Probe is Get that counts only a hit (see Pool.Probe). The engine
// probes on the querying goroutine and sends a miss to the page's disk
// worker, whose GetOrFetchHit then counts the request's one miss — or
// its one hit, when another fetch filled the page in between.
func (s *Sharded[K, V]) Probe(key K) (V, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.handOut(sh.lru.lookup(key, false))
}

// Put inserts or refreshes key. Safe for concurrent use.
func (s *Sharded[K, V]) Put(key K, val V) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	evicted, ok := sh.lru.put(key, val)
	sh.mu.Unlock()
	s.evicted(evicted, ok)
}

// evicted hands a value the LRU just pushed out to the hook, if any.
func (s *Sharded[K, V]) evicted(v V, ok bool) {
	if ok && s.onEvict != nil {
		s.onEvict(v)
	}
}

// Remove drops key if present.
func (s *Sharded[K, V]) Remove(key K) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lru.remove(key)
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
// events without a second cache probe. A miss takes the shard lock
// twice (lookup, admit) and allocates nothing beyond what fetch does.
func (s *Sharded[K, V]) GetOrFetchHit(key K, fetch func() (V, error)) (v V, hit bool, err error) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if v, ok := s.handOut(sh.lru.lookup(key, true)); ok {
		sh.mu.Unlock()
		return v, true, nil
	}
	if f, ok := sh.inflight[key]; ok {
		f.waiters++
		sh.mu.Unlock()
		f.done.Wait()
		v, err = f.val, f.err
		sh.mu.Lock()
		if f.waiters--; f.waiters == 0 {
			sh.free = f.recycled(sh.free)
		}
		sh.mu.Unlock()
		return v, true, err
	}
	f := sh.free
	if f != nil {
		sh.free = f.next
	} else {
		f = new(flight[V])
	}
	f.done.Add(1)
	sh.inflight[key] = f
	sh.mu.Unlock()

	v, err = fetch()

	sh.mu.Lock()
	f.val, f.err = v, err
	var old V
	var full bool
	if err == nil {
		old, full = sh.lru.put(key, v)
		if s.onHandOut != nil {
			s.onHandOut(v, 1+f.waiters)
		}
	}
	// Off the map under the lock that admitted the value: nobody joins
	// the flight from here on, so the waiter count just reported is final.
	delete(sh.inflight, key)
	f.done.Done() // never blocks; Wait is what may not run under mu
	if f.waiters == 0 {
		sh.free = f.recycled(sh.free)
	}
	sh.mu.Unlock()
	s.evicted(old, full)
	return v, false, err
}

// recycled clears a flight record nobody reads any more and links it in
// front of the free list, returning the new head.
func (f *flight[V]) recycled(free *flight[V]) *flight[V] {
	var zero V
	f.val, f.err, f.next = zero, nil, free
	return f
}

// Len returns the total number of cached entries across shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.lru.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the summed shard capacities (>= the requested total
// due to even rounding).
func (s *Sharded[K, V]) Capacity() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.lru.capacity
		sh.mu.Unlock()
	}
	return n
}

// Stats aggregates the traffic counters of all shards.
func (s *Sharded[K, V]) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.lru.stats
		sh.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Inserts += st.Inserts
	}
	return out
}
