//go:build lockrank

package lockrank_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lockrank"
)

// mustPanic runs f and requires a panic whose message holds every want.
func mustPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}()
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Errorf("panic %q does not name %q", msg, w)
		}
	}
}

func TestOrderViolationsPanic(t *testing.T) {
	var (
		index   lockrank.RWMutex[lockrank.IndexMu]
		engine  lockrank.Mutex[lockrank.EngineMu]
		durable lockrank.RWMutex[lockrank.DurableMu]
		shard   lockrank.Mutex[lockrank.Leaf]
		pool    lockrank.Mutex[lockrank.Leaf]
	)
	t.Run("inverted pair", func(t *testing.T) {
		engine.Lock()
		mustPanic(t, index.RLock, "acquiring lockrank.IndexMu", "while holding lockrank.EngineMu")
		engine.Unlock()
	})
	// A bufferpool shard held while the store is locked: the inversion
	// against DurableStore.Checkpoint's store-then-shard order.
	t.Run("shard then store", func(t *testing.T) {
		shard.Lock()
		mustPanic(t, durable.Lock, "acquiring lockrank.DurableMu", "while holding lockrank.Leaf")
		shard.Unlock()
	})
	t.Run("same rank", func(t *testing.T) {
		shard.Lock()
		mustPanic(t, pool.Lock, "acquiring lockrank.Leaf", "while holding lockrank.Leaf")
		shard.Unlock()
	})
	t.Run("recursive RLock", func(t *testing.T) {
		index.RLock()
		mustPanic(t, index.RLock, "acquiring lockrank.IndexMu", "while holding lockrank.IndexMu")
		index.RUnlock()
	})
	t.Run("unheld release", func(t *testing.T) {
		mustPanic(t, shard.Unlock, "releasing lockrank.Leaf")
	})
	t.Run("release on another goroutine", func(t *testing.T) {
		shard.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			mustPanic(t, shard.Unlock, "releasing lockrank.Leaf")
		}()
		<-done
		shard.Unlock()
	})
}

// TestAscendingOrderAllocatesNothing takes every rank in order, releases
// out of order, and requires no allocation once warm: the
// allocation-budget tests elsewhere run under this tag too.
func TestAscendingOrderAllocatesNothing(t *testing.T) {
	var (
		index   lockrank.RWMutex[lockrank.IndexMu]
		engine  lockrank.Mutex[lockrank.EngineMu]
		durable lockrank.RWMutex[lockrank.DurableMu]
		wal     lockrank.Mutex[lockrank.WALMu]
		leaf    lockrank.Mutex[lockrank.Leaf]
	)
	allocs := testing.AllocsPerRun(100, func() {
		index.RLock()
		engine.Lock()
		durable.Lock()
		wal.Lock()
		leaf.Lock()
		engine.Unlock()
		index.RUnlock()
		wal.Unlock()
		leaf.Unlock()
		durable.Unlock()
	})
	if allocs != 0 {
		t.Errorf("%v allocations per pass, want 0", allocs)
	}
}
