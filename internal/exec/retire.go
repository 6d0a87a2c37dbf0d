package exec

import "repro/internal/rtree"

// Who owns a decoded page view.
//
// A view the page cache evicts is dead memory as soon as no running
// query can still be reading it, and on a cache much smaller than the
// page set that is most of what a query allocates. The engine therefore
// owns evicted views and hands them back to the pool the decoders draw
// from (rtree.ViewPool, through pagestore.Codec.Views) — but only once
// it can prove nobody reads them, and the proof is by generations, not
// by counting references per page:
//
//   - Every query pins the generation current when it begins (begin,
//     under the lock admission takes anyway) and unpins when it returns
//     (end, one atomic). A query reads views only between the two.
//   - A view reaches a query in one of three ways, all of which need
//     the query to have begun first: a cache hit, a delivery from the
//     fetch that decoded it, or a delivery through a coalesced flight
//     the query joined. So once a view has left the cache and no flight
//     for its page is open, every query that holds it, or ever will,
//     has already begun — it is pinned to the current generation or an
//     earlier one.
//   - The eviction hook (retire) parks such a view under the current
//     generation g. Generation g+1 begins, at an eviction, when no
//     query is pinned to g-1; g+2 when none is pinned to g. From then on
//     nobody pinned to g or earlier is running, and the views parked
//     under g go to the pool.
//
// The rule that makes this reviewable is one-directional: a view whose
// ownership is in any doubt is left to the collector. A hedge's losing
// read, a view the id check rejected, one never admitted, one replaced
// by Put or dropped by Remove never reach the hook; the hook itself
// drops a view whose page has a flight open (a late joiner could still
// be handed it), one that does not fit under its generation's cap (a
// stalled query is holding the generations back) and everything after
// Close. Forgetting to recycle costs garbage; only recycling early can
// cost a wrong answer, and only retire can do that.
//
// What a query returns never aliases pooled memory: executions keep no
// view past the Step that was handed it, candidates copy scalars, and a
// pooled view's Rect and Sphere copy the one entry (rtree.FlatNode).
// Views of live nodes (resident supernodes) are never pooled.

// limboPerCachePage sizes the limbo lists: a generation lasts about as
// long as the queries that were running when it began, so what is parked
// scales with the misses of a few queries, not with the cache — but the
// memory the engine may hold back should be in proportion to the memory
// it was told to use, so the cap is a multiple of Config.CachePages.
const limboPerCachePage = 32

// closing is subtracted from both pin counts by Close: a count that
// then reads exactly -closing has no query left.
const closing = 1 << 40

// begin admits a query unless the engine is closed, pinning it to the
// current view generation. The returned slot is end's argument.
func (e *Engine) begin() (pin int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.isClosed {
		return 0, ErrClosed
	}
	pin = int(e.gen & 1)
	e.pins[pin].Add(1)
	return pin, nil
}

// end unpins a query; the last one out after Close tells drain.
func (e *Engine) end(pin int) {
	if e.pins[pin].Add(-1) == -closing {
		e.drained <- struct{}{}
	}
}

// drain waits until every admitted query has returned. Close calls it
// once, after it has stopped admission.
func (e *Engine) drain() {
	for i := range e.pins {
		if e.pins[i].Add(-closing) != -closing {
			<-e.drained
		}
	}
}

// retire is the page cache's eviction hook: v has just left the cache
// and is reported here exactly once. It parks v under the current
// generation and, when no query is pinned to the previous one, begins
// the next — which is when the views parked two generations ago have no
// reader left and go back to the pool.
func (e *Engine) retire(v *rtree.FlatNode) {
	if e.co != nil && e.co.open(v.ID) {
		return // a request that joins this flight late may still be handed v
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.isClosed {
		return
	}
	if park := &e.limbo[e.gen&1]; len(*park) < e.limboCap {
		*park = append(*park, v)
	}
	if e.pins[(e.gen+1)&1].Load() != 0 {
		return // a query of the previous generation is still running
	}
	e.gen++
	free := e.limbo[e.gen&1] // parked under e.gen-2
	if e.poison {
		for _, v := range free {
			rtree.PoisonView(v)
		}
	}
	e.views.Put(free...)
	clear(free)
	e.limbo[e.gen&1] = free[:0]
}
