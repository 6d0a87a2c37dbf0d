//go:build lockrank

package lockrank

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Mutex is a sync.Mutex whose rank is R, checked at each Lock.
type Mutex[R Rank] struct{ mu sync.Mutex }

func (m *Mutex[R]) Lock()   { acquire(*new(R)); m.mu.Lock() }
func (m *Mutex[R]) Unlock() { release(*new(R)); m.mu.Unlock() }

// RWMutex is a sync.RWMutex whose rank is R, checked at each Lock and
// RLock: a goroutine that holds the read lock may not take it again,
// because a writer waiting between the two would deadlock it.
type RWMutex[R Rank] struct{ mu sync.RWMutex }

func (m *RWMutex[R]) Lock()    { acquire(*new(R)); m.mu.Lock() }
func (m *RWMutex[R]) Unlock()  { release(*new(R)); m.mu.Unlock() }
func (m *RWMutex[R]) RLock()   { acquire(*new(R)); m.mu.RLock() }
func (m *RWMutex[R]) RUnlock() { release(*new(R)); m.mu.RUnlock() }

// held is one goroutine's held ranks in acquisition order, which the
// check keeps ascending, so a goroutine holds at most one lock per rank.
// A record that holds nothing is free for the next goroutine.
type held struct {
	gid   uint64
	n     int
	ranks [5]Rank
}

// rankTracker maps goroutines to their held ranks. The allocation-budget
// tests run under the tag too, so a lock must allocate nothing once
// warm: records are reused, and a goroutine's id is read into buf. Every
// field is guarded by mu.
type rankTracker struct {
	mu      sync.Mutex
	buf     [64]byte
	records []*held
}

var tracker rankTracker

func acquire(r Rank) {
	t := &tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.lookup()
	if h.n > 0 {
		if top := h.ranks[h.n-1]; top.rank() >= r.rank() {
			panic(fmt.Sprintf("lockrank: acquiring %T (rank %d) while holding %T (rank %d)",
				r, r.rank(), top, top.rank()))
		}
	}
	h.ranks[h.n] = r
	h.n++
}

func release(r Rank) {
	t := &tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.lookup()
	i := slices.Index(h.ranks[:h.n], r)
	if i < 0 {
		panic(fmt.Sprintf("lockrank: releasing %T (rank %d), which this goroutine does not hold", r, r.rank()))
	}
	copy(h.ranks[i:h.n], h.ranks[i+1:h.n])
	h.n--
	h.ranks[h.n] = nil
}

// lookup returns the calling goroutine's record, taking a free one if
// it holds nothing. t.mu is held.
func (t *rankTracker) lookup() *held {
	// runtime.Stack starts with "goroutine <id> [".
	n := runtime.Stack(t.buf[:], false)
	var gid uint64
	for _, c := range t.buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		gid = gid*10 + uint64(c-'0')
	}
	var free *held
	for _, h := range t.records {
		if h.n > 0 && h.gid == gid {
			return h
		}
		if h.n == 0 && free == nil {
			free = h
		}
	}
	if free == nil {
		free = new(held)
		t.records = append(t.records, free)
	}
	free.gid = gid
	return free
}
