package bufferpool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func idHash(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func TestShardedBasic(t *testing.T) {
	s := NewSharded[int, string](8, 4, idHash)
	if _, ok := s.Get(1); ok {
		t.Fatal("unexpected hit on empty pool")
	}
	s.Put(1, "one")
	if v, ok := s.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v; want one, true", v, ok)
	}
	if s.Capacity() < 8 {
		t.Fatalf("Capacity() = %d, want >= 8", s.Capacity())
	}
}

func TestShardedEvictsWithinCapacity(t *testing.T) {
	s := NewSharded[int, int](16, 4, idHash)
	for i := 0; i < 1000; i++ {
		s.Put(i, i)
	}
	if got := s.Len(); got > s.Capacity() {
		t.Fatalf("Len() = %d exceeds capacity %d", got, s.Capacity())
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions after overfilling")
	}
}

func TestShardedGetOrFetchDeduplicates(t *testing.T) {
	s := NewSharded[int, int](64, 8, idHash)
	var fetches atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.GetOrFetchHit(7, func() (int, error) {
				fetches.Add(1)
				<-release // hold the flight open so everyone piles on
				return 42, nil
			})
			if err != nil {
				t.Errorf("GetOrFetchHit: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetch ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d, want 42", i, v)
		}
	}
	if v, ok := s.Get(7); !ok || v != 42 {
		t.Fatalf("value not cached after flight: %d, %v", v, ok)
	}
}

func TestShardedGetOrFetchErrorNotCached(t *testing.T) {
	s := NewSharded[int, int](8, 2, idHash)
	boom := errors.New("boom")
	if _, _, err := s.GetOrFetchHit(3, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := s.Get(3); ok {
		t.Fatal("failed fetch must not be cached")
	}
	// A later caller retries and can succeed.
	if v, _, err := s.GetOrFetchHit(3, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("retry = %d, %v; want 9, nil", v, err)
	}
}

// TestShardedConcurrentGetEvict hammers a small pool from many
// goroutines so gets, puts, evictions and deduplicated fetches overlap;
// run under -race it is the bufferpool concurrency gate.
func TestShardedConcurrentGetEvict(t *testing.T) {
	s := NewSharded[int, int](32, 4, idHash)
	const (
		goroutines = 16
		keys       = 256
		iterations = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := (g*31 + i) % keys
				switch i % 4 {
				case 0:
					s.Put(k, k)
				case 1:
					if v, ok := s.Get(k); ok && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					v, _, err := s.GetOrFetchHit(k, func() (int, error) { return k, nil })
					if err != nil || v != k {
						t.Errorf("GetOrFetchHit(%d) = %d, %v", k, v, err)
					}
				default:
					if v, ok := s.Probe(k); ok && v != k {
						t.Errorf("Probe(%d) = %d", k, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got > s.Capacity() {
		t.Fatalf("Len() = %d exceeds capacity %d", got, s.Capacity())
	}
}

func TestShardedPanicsOnBadConfig(t *testing.T) {
	for name, fn := range map[string]func(){
		"capacity": func() { NewSharded[int, int](0, 1, idHash) },
		"shards":   func() { NewSharded[int, int](4, 0, idHash) },
		"hash":     func() { NewSharded[int, int](4, 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestShardedMoreShardsThanCapacity(t *testing.T) {
	s := NewSharded[int, int](2, 64, idHash)
	for i := 0; i < 10; i++ {
		s.Put(i, i)
	}
	if s.Len() > s.Capacity() {
		t.Fatalf("Len %d > Capacity %d", s.Len(), s.Capacity())
	}
	if st := s.Stats(); st.Inserts == 0 {
		t.Fatal("expected inserts recorded")
	}
}

// TestShardedProbeCountsOnlyHits pins the contract the engine's caller
// probe relies on: Probe followed, on a miss, by GetOrFetchHit counts
// the request once — one miss when the fetch runs, one hit when the
// key was resident either time — and a Probe hit promotes like Get.
func TestShardedProbeCountsOnlyHits(t *testing.T) {
	s := NewSharded[int, string](2, 1, idHash)
	fetch := func() (string, error) { return "one", nil }

	if _, ok := s.Probe(1); ok {
		t.Fatal("Probe hit on an empty pool")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a Probe miss counted: %+v", st)
	}
	if _, hit, err := s.GetOrFetchHit(1, fetch); hit || err != nil {
		t.Fatalf("GetOrFetchHit on a cold key: hit %v, err %v", hit, err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("probe + fetch of a cold key: %+v, want exactly one miss", st)
	}
	if v, ok := s.Probe(1); !ok || v != "one" {
		t.Fatalf("Probe(1) = %q, %v after the fill", v, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("a Probe hit: %+v, want one hit beside the earlier miss", st)
	}

	// The probe's hit made key 1 the most recently used: filling the
	// two-entry pool evicts key 2, not key 1.
	s.Put(2, "two")
	if _, ok := s.Probe(1); !ok {
		t.Fatal("key 1 gone before the pool was full")
	}
	s.Put(3, "three")
	if _, ok := s.Probe(2); ok {
		t.Error("key 2 survived although key 1 was probed after it")
	}
	if _, ok := s.Probe(1); !ok {
		t.Error("a probed key was evicted before an unprobed one")
	}
}

// A miss on a full shard allocates nothing beyond what fetch does: the
// eviction reuses the evicted entry's bookkeeping and the flight record
// comes off the shard's free list.
func TestShardedMissOnFullShardAllocs(t *testing.T) {
	s := NewSharded[int, *int](32, 1, func(k int) uint64 { return uint64(k) })
	v := new(int)
	fetch := func() (*int, error) { return v, nil }
	for k := 0; k < 32; k++ {
		s.GetOrFetchHit(k, fetch)
	}
	next := 32
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, hit, err := s.GetOrFetchHit(next, fetch); hit || err != nil {
			t.Fatalf("key %d: hit=%v err=%v, want a clean miss", next, hit, err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("miss on a full shard: %.2f allocations, want 0", allocs)
	}
	if st := s.Stats(); st.Misses != uint64(next) || st.Evictions != uint64(next-32) || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// The eviction hook sees every value the LRU pushes out, exactly once,
// after it has left the cache and outside the shard lock; a value
// replaced by a refresh is not reported.
func TestShardedOnEvict(t *testing.T) {
	s := NewSharded[int, int](4, 1, func(k int) uint64 { return uint64(k) })
	seen := map[int]int{}
	s.OnEvict(func(v int) {
		seen[v]++
		// Outside the lock: the hook may call back into the cache, and
		// the value it was handed is gone from it.
		if _, ok := s.Probe(v); ok {
			t.Errorf("value %d reported evicted while still cached", v)
		}
	})
	fetch := func(k int) func() (int, error) { return func() (int, error) { return k, nil } }
	for k := 0; k < 4; k++ {
		s.Put(k, k)
	}
	s.Put(2, 2) // refresh: nobody leaves
	if len(seen) != 0 {
		t.Fatalf("hook ran without an eviction: %v", seen)
	}
	s.Put(11, 11)                  // evicts 0
	s.GetOrFetchHit(12, fetch(12)) // evicts 1
	s.GetOrFetchHit(12, fetch(12)) // hit
	if _, _, err := s.GetOrFetchHit(13, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("failed fetch returned no error")
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("hook saw %v, want 0 and 1 once each", seen)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if st := s.Stats(); st.Evictions != uint64(total) {
		t.Errorf("hook calls %d, Stats().Evictions %d", total, st.Evictions)
	}
}

// Flight records are recycled, with and without waiters: round after
// round, every caller of a round gets that round's value, never one a
// recycled record still carried.
// The hand-out hook is told of every value the cache gives a caller and
// of how many callers get it: one per hit, the fetching caller and
// every waiter of its flight per admission — never of a miss or of a
// failed fetch — and it always runs before the value's eviction is
// reported.
func TestShardedOnHandOut(t *testing.T) {
	s := NewSharded[int, int](2, 1, func(k int) uint64 { return uint64(k) })
	handed := map[int]int{}
	var mu sync.Mutex // the hook runs on every caller's goroutine
	s.OnHandOut(func(v, callers int) {
		mu.Lock()
		defer mu.Unlock()
		handed[v] += callers
	})
	s.OnEvict(func(v int) {
		mu.Lock()
		defer mu.Unlock()
		if handed[v] == 0 {
			t.Errorf("value %d evicted before any hand-out was reported", v)
		}
		handed[v] = -1 << 20 // a hand-out after the eviction would show
	})
	fetch := func(k int) func() (int, error) { return func() (int, error) { return k, nil } }
	s.Get(1)   // miss
	s.Probe(1) // miss
	s.Put(1, 1)
	if len(handed) != 0 {
		t.Fatalf("hand-outs reported with nothing handed out: %v", handed)
	}
	s.Get(1)
	s.Probe(1)
	s.GetOrFetchHit(1, fetch(1)) // hit
	s.GetOrFetchHit(2, fetch(2)) // admission, nobody waiting
	if _, _, err := s.GetOrFetchHit(3, func() (int, error) { return 3, errors.New("boom") }); err == nil {
		t.Fatal("failed fetch returned no error")
	}
	if handed[1] != 3 || handed[2] != 1 || handed[3] != 0 {
		t.Fatalf("hand-outs %v, want 1:3 2:1", handed)
	}

	// A flight with waiters: the admission reports all of them at once.
	const waiters = 5
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.GetOrFetchHit(4, func() (int, error) { <-release; return 4, nil })
		}()
	}
	for joined := false; !joined; runtime.Gosched() {
		sh := s.shardOf(4)
		sh.mu.Lock()
		f := sh.inflight[4]
		joined = f != nil && f.waiters == waiters
		sh.mu.Unlock()
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if handed[4] != 1+waiters {
		t.Errorf("a flight of %d callers reported %d hand-outs", 1+waiters, handed[4])
	}
	if handed[1] >= 0 {
		t.Errorf("value 1 should have been evicted by now: %v", handed)
	}
}

func TestShardedFlightRecordsRecycle(t *testing.T) {
	s := NewSharded[int, int](2, 1, func(k int) uint64 { return uint64(k) })
	const waiters, rounds = 8, 300
	for round := 1; round <= rounds; round++ {
		key := round // a new key: every round misses
		release := make(chan struct{})
		var wg sync.WaitGroup
		var fetches atomic.Int64
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := s.GetOrFetchHit(key, func() (int, error) {
					fetches.Add(1)
					<-release
					return round, nil
				})
				if err != nil || v != round {
					t.Errorf("round %d: got %d, %v", round, v, err)
				}
			}()
		}
		for fetches.Load() == 0 {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if n := fetches.Load(); n != 1 {
			t.Fatalf("round %d: fetch ran %d times", round, n)
		}
	}
}
