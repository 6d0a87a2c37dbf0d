// Package lockorder is golden-test input for the lockorder analyzer.
// The mock WAL/DurableStore/FileStore types mirror the
// repo's lock-owning types by name: lock identity is "Type.field", so
// these stdlib-only mocks exercise the same lock classes — including
// the cross-package baseline edges (DurableStore.mu -> WAL.mu) that
// close cycles the analyzer cannot see in one package.
package lockorder

import (
	"sync"
	"time"
)

type WAL struct{ mu sync.Mutex }

type DurableStore struct{ mu sync.Mutex }

type FileStore struct {
	mu sync.Mutex
	f  blockFile
}

type blockFile interface {
	WriteAt(b []byte, off int64) (int, error)
	Sync() error
}

// badWalOrder acquires WAL.mu then DurableStore.mu — the reverse of
// the pagestore's DurableStore.mu -> WAL.mu commit edge.
func badWalOrder(w *WAL, d *DurableStore) {
	w.mu.Lock()
	d.mu.Lock() // want "lock-order cycle .potential deadlock. among .DurableStore.mu, WAL.mu."
	d.mu.Unlock()
	w.mu.Unlock()
}

type guard struct{ mu sync.Mutex }

// relock reacquires a lock already held: a self-deadlock.
func relock(g *guard) {
	g.mu.Lock()
	g.mu.Lock() // want "lock-order cycle .potential self-deadlock.: guard.mu is reacquired"
	g.mu.Unlock()
	g.mu.Unlock()
}

type cache struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

// sendUnderLock blocks on a channel send while holding a hot-path
// lock.
func sendUnderLock(c *cache) {
	c.mu.Lock()
	c.ch <- 1 // want "channel send while holding cache.mu"
	c.mu.Unlock()
}

// waitUnderLock blocks on WaitGroup.Wait while holding the lock.
func waitUnderLock(c *cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wg.Wait() // want "WaitGroup.Wait while holding cache.mu"
}

// sleepUnderLock stalls every other acquirer for the sleep duration.
func sleepUnderLock(c *cache) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding cache.mu"
	c.mu.Unlock()
}

// selectUnderLock blocks in a select with no default under the lock;
// selectWithDefaultUnderLock polls and is clean.
func selectUnderLock(c *cache, done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "select without default while holding cache.mu"
	case v := <-c.ch:
		_ = v
	case <-done:
	}
}

func selectWithDefaultUnderLock(c *cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-c.ch:
		_ = v
	default:
	}
}

// recvOutsideLock releases before blocking — the bufferpool
// singleflight idiom — and is clean.
func recvOutsideLock(c *cache) {
	c.mu.Lock()
	c.mu.Unlock()
	<-c.ch
}

// blockingHelper receives on the channel; callUnderLock invokes it
// while holding the lock, so the blocking is reported at the callsite
// through the helper's summary.
func blockingHelper(c *cache) {
	<-c.ch
}

func callUnderLock(c *cache) {
	c.mu.Lock()
	blockingHelper(c) // want "call to blockingHelper .may block on a channel or WaitGroup. while holding cache.mu"
	c.mu.Unlock()
}

// ioUnderHotLock performs file I/O while holding a hot-path lock.
func ioUnderHotLock(c *cache, f blockFile, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = f.WriteAt(b, 0) // want "file I/O .WriteAt. while holding hot-path lock cache.mu"
}

// ioUnderStoreLock holds an I/O-bearing lock across file I/O — the
// pagestore design (fsyncorder owns the write/sync ordering) — and is
// clean here.
func (fs *FileStore) ioUnderStoreLock(b []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _ = fs.f.WriteAt(b, 0)
	_ = fs.f.Sync()
}

// allowedSend documents an intentional handoff under the lock.
func allowedSend(c *cache) {
	c.mu.Lock()
	//lint:allow lockorder capacity reserved at enqueue, send cannot block
	c.ch <- 2
	c.mu.Unlock()
}
