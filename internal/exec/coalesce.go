package exec

import (
	"repro/internal/lockrank"
	"repro/internal/rtree"
)

// coalescer is the cross-request page-fetch coalescing layer
// (Config.CoalesceFetches): when concurrent queries of a framed engine
// read the same leaf at the same time, exactly one fetch job goes
// through the disk queue — the others join the in-flight "flight" and
// share its result, its decode and its one queue and in-flight
// semaphore slot. It is the engine's only singleflight. Under a
// saturated array that is the difference between N queries queueing N
// copies of a cold leaf and all of them riding one fetch. Pages served
// inline never get here.
//
// A flight is keyed by page id (pages live on exactly one logical
// disk, so the page identifies the disk too) and lives in a sharded
// map; shards are locked independently so coalescing adds one short
// critical section to the submit path.
type coalescer struct {
	shards []coShard
}

// coShard holds its pages' open flights: a page is in the map from the
// moment a request leads a fetch of it until that fetch is resolved,
// and maps to the requests that joined meanwhile (nil while nobody
// has). Once resolve has taken a waiter list out of the map it is
// immutable and delivered, and then handed back (recycle) for the next
// flight somebody joins, so a join on a warm shard allocates nothing.
type coShard struct {
	mu      lockrank.Mutex[lockrank.Leaf]
	flights map[rtree.PageID][]flightWaiter // guarded by mu
	spare   [][]flightWaiter                // guarded by mu: delivered waiter lists, emptied
}

// flightWaiter is one joined request: the joining stage and the
// request's slot in it.
type flightWaiter struct {
	sc  *stageScratch
	idx int
}

const coalesceShards = 16

func newCoalescer() *coalescer {
	c := &coalescer{shards: make([]coShard, coalesceShards)}
	for i := range c.shards {
		c.shards[i].flights = make(map[rtree.PageID][]flightWaiter)
	}
	return c
}

func (c *coalescer) shardOf(id rtree.PageID) *coShard {
	return &c.shards[(uint64(uint32(id))*0x9e3779b97f4a7c15)%coalesceShards]
}

// join registers slot idx of stage sc on an existing flight for page,
// reporting whether one was found. When it returns false the caller
// leads a new flight: it must either enqueue a job carrying the shard,
// so the worker that serves it resolves the flight, or abort the
// flight, so joiners never hang.
func (c *coalescer) join(page rtree.PageID, sc *stageScratch, idx int) (*coShard, bool) {
	sh := c.shardOf(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	waiters, open := sh.flights[page]
	if open {
		if n := len(sh.spare); waiters == nil && n > 0 {
			waiters, sh.spare = sh.spare[n-1], sh.spare[:n-1]
		}
		waiters = append(waiters, flightWaiter{sc: sc, idx: idx})
	}
	sh.flights[page] = waiters
	return sh, open
}

// resolve removes page's flight from the shard and returns the waiters
// registered while it was open. After resolve, new requests for the
// page start a fresh flight.
func (sh *coShard) resolve(page rtree.PageID) []flightWaiter {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	waiters := sh.flights[page]
	delete(sh.flights, page)
	return waiters
}

// recycle takes back a waiter list resolve returned, once every waiter
// on it has been delivered to. It is cleared first: a spare list must
// not keep a finished query's stage alive.
func (sh *coShard) recycle(waiters []flightWaiter) {
	clear(waiters)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.spare = append(sh.spare, waiters[:0])
}

// resolveFlight closes page's flight and hands res to every request
// that joined it. It runs on the disk worker that served the flight's
// leader, right before the leader's own delivery, so every slot — led
// or joined — is delivered exactly one fetchResult and the stage's
// countdown stays unaware of coalescing. A delivered view goes out with
// one hold per joiner (retire.go), taken while the worker still has the
// leader's: however fast the leader's stage moves on, the view is not
// recycled under a joiner. Joined deliveries are marked coalesced (for
// the cancellation-retry path in fetchStage) and, on success, count as
// served-without-a-decode for trace attribution. A delivery never
// blocks: it is a slot write and, from whoever completes the stage, one
// send on a channel with room for it.
func (e *Engine) resolveFlight(sh *coShard, page rtree.PageID, res fetchResult) {
	waiters := sh.resolve(page)
	if len(waiters) == 0 {
		return
	}
	res.coalesced = true
	res.hit = res.err == nil
	if res.node != nil {
		res.node.Hold(len(waiters))
	}
	for _, w := range waiters {
		w.sc.deliver(w.idx, res)
	}
	sh.recycle(waiters)
}

// abortFlight resolves a flight whose leader failed to enqueue its job
// (cancelled or engine closed): every joined waiter gets the
// submission error so its batch can retry or unwind — a joiner must
// never be left waiting on a flight that will not fly.
func (e *Engine) abortFlight(sh *coShard, page rtree.PageID, err error) {
	e.resolveFlight(sh, page, fetchResult{err: err})
}
