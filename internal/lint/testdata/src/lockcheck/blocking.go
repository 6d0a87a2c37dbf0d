package lockcheck

import (
	"sync"
	"time"

	"lockcheck/lockrank"
)

// WAL mirrors pagestore.WAL by name: the rule knows the store locks by
// "Type.field".
type WAL struct {
	mu sync.Mutex
	f  blockFile
}

type blockFile interface {
	WriteAt(b []byte, off int64) (int, error)
	Sync() error
}

type hot struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

// sendUnderLock blocks on a channel send while holding a hot-path
// lock.
func sendUnderLock(c *hot) {
	c.mu.Lock()
	c.ch <- 1 // want "channel send while holding hot.mu"
	c.mu.Unlock()
}

// waitUnderLock blocks on WaitGroup.Wait while holding the lock.
func waitUnderLock(c *hot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wg.Wait() // want "WaitGroup.Wait while holding hot.mu"
}

// sleepUnderLock stalls every other acquirer for the sleep duration.
func sleepUnderLock(c *hot) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding hot.mu"
	c.mu.Unlock()
}

// rangeUnderLock drains a channel under the lock, on one path only.
func rangeUnderLock(c *hot, locked bool) {
	if locked {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	for v := range c.ch { // want "range over channel while holding hot.mu"
		_ = v
	}
}

// selectUnderLock blocks in a select with no default under the lock;
// selectWithDefaultUnderLock polls and is clean.
func selectUnderLock(c *hot, done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "select without default while holding hot.mu"
	case v := <-c.ch:
		_ = v
	case <-done:
	}
}

func selectWithDefaultUnderLock(c *hot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-c.ch:
		_ = v
	default:
	}
}

// recvOutsideLock releases before blocking and is clean; so is the
// goroutine it starts under the lock, which does not run with it.
func recvOutsideLock(c *hot) {
	c.mu.Lock()
	go func() { <-c.ch }()
	c.mu.Unlock()
	<-c.ch
}

// ioUnderHotLock performs file I/O while holding a hot-path lock.
func ioUnderHotLock(c *hot, f blockFile, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = f.WriteAt(b, 0) // want "file I/O .WriteAt. while holding hot.mu"
}

// ioUnderStoreLock holds an I/O-bearing lock across file I/O — the
// pagestore design (the crash-recovery torture checks the write/sync
// ordering) — and is clean here.
func (w *WAL) ioUnderStoreLock(b []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, _ = w.f.WriteAt(b, 0)
	_ = w.f.Sync()
}

// allowedSend documents an intentional handoff under the lock.
func allowedSend(c *hot) {
	c.mu.Lock()
	//lint:allow lockcheck capacity reserved at enqueue, send cannot block
	c.ch <- 2
	c.mu.Unlock()
}

// ranked holds a lockrank mutex, whose Lock the rule sees as it sees
// sync's.
type ranked struct {
	mu lockrank.Mutex[lockrank.Leaf]
	ch chan int
}

func sendUnderRankedLock(r *ranked) {
	r.mu.Lock()
	r.ch <- 1 // want "channel send while holding ranked.mu"
	r.mu.Unlock()
}
