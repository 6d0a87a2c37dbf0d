package bufferpool

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicPutGet(t *testing.T) {
	p := New[int, string](2)
	p.Put(1, "a")
	p.Put(2, "b")
	if v, ok := p.Get(1); !ok || v != "a" {
		t.Errorf("Get(1) = %q,%v", v, ok)
	}
	if _, ok := p.Get(3); ok {
		t.Error("Get(3) hit")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New[int, int](2)
	p.Put(1, 10)
	p.Put(2, 20)
	p.Get(1)     // 1 is now MRU
	p.Put(3, 30) // evicts 2
	if p.Contains(2) {
		t.Error("2 not evicted")
	}
	if !p.Contains(1) || !p.Contains(3) {
		t.Error("wrong eviction victim")
	}
	if p.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", p.Stats().Evictions)
	}
}

func TestPutRefreshesValue(t *testing.T) {
	p := New[string, int](2)
	p.Put("x", 1)
	p.Put("x", 2)
	if v, _ := p.Get("x"); v != 2 {
		t.Errorf("refreshed value = %d", v)
	}
	if p.Len() != 1 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestRemove(t *testing.T) {
	p := New[int, int](4)
	p.Put(1, 1)
	p.Remove(1)
	p.Remove(99) // no-op
	if p.Contains(1) || p.Len() != 0 {
		t.Error("Remove failed")
	}
}

func TestReset(t *testing.T) {
	p := New[int, int](4)
	p.Put(1, 1)
	p.Get(1)
	p.Reset()
	if p.Len() != 0 || p.Stats().Hits != 0 {
		t.Error("Reset incomplete")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New[int, int](0)
}

func TestHitRate(t *testing.T) {
	p := New[int, int](2)
	if p.Stats().HitRate() != 0 {
		t.Error("untouched pool hit rate != 0")
	}
	p.Put(1, 1)
	p.Get(1)
	p.Get(2)
	if got := p.Stats().HitRate(); got != 0.5 {
		t.Errorf("hit rate = %g", got)
	}
}

// Property: the pool never exceeds capacity and behaves like a model
// map + recency list.
func TestLRUModelProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		rnd := rand.New(rand.NewSource(seed))
		p := New[int, int](capacity)
		model := map[int]int{}
		var recency []int // most recent last
		touch := func(k int) {
			for i, x := range recency {
				if x == k {
					recency = append(recency[:i], recency[i+1:]...)
					break
				}
			}
			recency = append(recency, k)
		}
		for step := 0; step < 300; step++ {
			k := rnd.Intn(24)
			if rnd.Float64() < 0.5 {
				v := rnd.Int()
				p.Put(k, v)
				if _, exists := model[k]; !exists && len(model) == capacity {
					victim := recency[0]
					recency = recency[1:]
					delete(model, victim)
				}
				model[k] = v
				touch(k)
			} else {
				v, ok := p.Get(k)
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
				if ok {
					touch(k)
				}
			}
			if p.Len() > capacity || p.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A full pool re-keys the evicted entry's list element and record for
// the newcomer: the steady state of a cache smaller than its working
// set allocates nothing per insert, and evicts in LRU order as before.
func TestPutIntoFullPoolAllocatesNothing(t *testing.T) {
	p := New[int, *int](64)
	v := new(int)
	for k := 0; k < 64; k++ {
		p.Put(k, v)
	}
	next := 64
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Put(next, v)
		next++
	}); allocs != 0 {
		t.Errorf("insert into a full pool: %.2f allocations, want 0", allocs)
	}
	if p.Len() != 64 || p.Contains(next-65) || !p.Contains(next-64) || !p.Contains(next-1) {
		t.Errorf("after %d inserts the pool does not hold exactly the 64 newest keys", next)
	}
	if s := p.Stats(); s.Inserts != uint64(next) || s.Evictions != uint64(next-64) {
		t.Errorf("stats = %+v, want %d inserts and %d evictions", s, next, next-64)
	}
}
