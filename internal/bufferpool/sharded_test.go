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
				switch i % 3 {
				case 0:
					s.Put(k, k)
				case 1:
					if v, ok := s.Get(k); ok && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				default:
					v, _, err := s.GetOrFetchHit(k, func() (int, error) { return k, nil })
					if err != nil || v != k {
						t.Errorf("GetOrFetchHit(%d) = %d, %v", k, v, err)
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

// Flight records are recycled, with and without waiters: round after
// round, every caller of a round gets that round's value, never one a
// recycled record still carried.
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
