package exec

import "repro/internal/rtree"

// Who owns a decoded page view (DESIGN decision 15).
//
// A framed engine's leaves are read into frames: views its decoders
// draw from rtree.ViewPool (through pagestore.Codec.Views), one per
// read in flight or result slot that carries it, handed back the moment
// the last hold on it (rtree.FlatNode.Hold) is gone.
//
//   - A hold is taken where a view is handed out, never later: by the
//     disk worker as its read returns (the request's), and by
//     resolveFlight, one per joiner, while the worker still carries the
//     leader's.
//   - A hold is dropped in one place, the stage's result slots, when the
//     query's next stage begins or the query returns, failed or not
//     (releaseStage): a stage has waited for every delivery it is owed,
//     so its slots are final by then.
//   - Whoever drops the last hold — the count is one atomic word — alone
//     sees that and recycles the view.
//
// The views alive are therefore those the slots of running stages hold
// and those being read in: a fixed set of frames once the engine is warm
// (Snapshot().Views.Made stops growing). Doubt still goes to the
// collector: a hedge's loser or a view the id check rejected is never
// held, hence never recycled, and a hold nobody drops (a panicked query,
// fetchBatch's one-shot scratch) keeps its view out of the pool for
// good. Only recycle can hand memory out early.
//
// What a query returns never aliases a frame: executions keep no view
// past the Step it was delivered to, candidates copy scalars, accepted
// neighbours copy their point (query.base.offerLeaf). Views of live
// nodes (the pinned directory, a resident engine's leaves) are neither
// pooled nor counted.

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

// releaseStage drops the holds of the stage whose results sc still
// carries, recycling each view whose last hold that was. A resident
// engine counts no holds.
func (e *Engine) releaseStage(sc *stageScratch) {
	if e.views == nil {
		return
	}
	for i := range sc.results {
		v := sc.results[i].node
		sc.results[i].node = nil // a slot is released once
		if v != nil && v.Release() {
			if e.poison {
				rtree.PoisonView(v)
			}
			e.views.Put(v)
		}
	}
}
