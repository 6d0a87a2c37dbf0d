package exec

import "repro/internal/rtree"

// Who owns a decoded page view (DESIGN decision 15).
//
// On a cache much smaller than the page set, evicted views are all a
// query would allocate. The engine therefore owns the views its decoders
// draw from rtree.ViewPool (through pagestore.Codec.Views) and hands one
// back the moment nobody can read it: when the cache has evicted it and
// the last hold on it (rtree.FlatNode.Hold), one per result slot of a
// running stage that carries it, is gone.
//
//   - A hold is taken where a view is handed out, never later: by the
//     page cache under the shard lock that finds the view resident or
//     admits it (the hand-out hook; at admission one for the fetching
//     request and one for each that waited on the cache's flight), and
//     by resolveFlight, one per joiner, while the serving worker still
//     carries the leader's. Eviction takes the same shard lock after
//     admission, so it never overtakes a hold.
//   - A hold is dropped in one place, the stage's result slots, when the
//     query's next stage begins or the query returns, failed or not
//     (releaseStage): a stage has waited for every delivery it is owed,
//     so its slots are final by then.
//   - The eviction hook (retire) marks the view. Whoever brings it to
//     "evicted, no holds" — the hook or the last release; the count is
//     one atomic word — alone sees that and recycles it.
//
// The views alive are therefore those the cache holds, those the slots
// of running stages hold and those being read in: a fixed set of frames
// once the engine is warm (Snapshot().Views.Made stops growing). And
// doubt still goes to the collector: the count never travels the read
// path — a hedge's loser, a view the id check rejected, one never
// admitted, one replaced by Put or dropped by Remove is never evicted,
// hence never recycled, and a hold nobody drops (a panicked query,
// fetchBatch's one-shot scratch) keeps its view out of the pool for
// good. Only recycle can hand memory out early.
//
// What a query returns never aliases a frame: executions keep no view
// past the Step it was delivered to, candidates copy scalars, accepted
// neighbours copy their rectangle (query.base.offerLeaf). Views of
// live nodes (resident supernodes) are neither pooled nor counted.

// begin admits a query unless the engine is closed. Close waits for
// every admitted query to call e.running.Done.
func (e *Engine) begin() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.isClosed {
		return ErrClosed
	}
	e.running.Add(1)
	return nil
}

// retire is the page cache's eviction hook: v has just left the cache
// and is reported here exactly once.
func (e *Engine) retire(v *rtree.FlatNode) {
	if v.Evict() {
		e.recycle(v)
	}
}

// releaseStage drops the holds of the stage whose results sc still
// carries. Only an engine that recycles views counts holds at all.
func (e *Engine) releaseStage(sc *stageScratch) {
	if e.views == nil {
		return
	}
	for i := range sc.results {
		v := sc.results[i].node
		sc.results[i].node = nil // a slot is released once
		if v != nil && v.Release() {
			e.recycle(v)
		}
	}
}

// recycle hands a view that was evicted and has no hold left back to
// the decoders.
func (e *Engine) recycle(v *rtree.FlatNode) {
	if e.poison {
		rtree.PoisonView(v)
	}
	e.views.Put(v)
}
