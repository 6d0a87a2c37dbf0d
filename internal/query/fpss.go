package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// FPSS is the Full-Parallel Similarity Search (§3.2): a breadth-first
// sweep that, at every directory level, derives the Lemma-1 threshold
// from the entries' Dmax and subtree counts, rejects entries whose Dmin
// exceeds it, and fetches every surviving child in one parallel batch.
// It maximizes intra-query parallelism but has no control over the
// number of fetched pages, which is exactly the weakness the paper's
// workload experiments expose.
type FPSS struct{}

// Name implements Algorithm.
func (FPSS) Name() string { return "FPSS" }

// NewExecution implements Algorithm.
func (FPSS) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	return &fpssExec{base: newBase(t, q, k, opts), dthSq: math.Inf(1)}
}

type fpssExec struct {
	base
	dthSq   float64
	started bool
}

func (e *fpssExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		return e.requestRoot()
	}

	scanned, sorted := 0, 0
	if len(delivered) > 0 && delivered[0].IsLeaf() {
		// Final level: evaluate all objects; the BFS invariant (every
		// page possibly holding an answer was fetched) makes the best
		// list exact.
		for _, n := range delivered {
			scanned += n.Len()
			e.offerLeaf(n, e.leafDmin(n), math.Inf(1))
		}
		e.done = true
		return e.finishStep(nil, scanned, 0)
	}

	// Directory level: threshold, prune, activate everything.
	cands := e.sc.makeCandidates(e.q, delivered)
	scanned = len(cands)
	if b := e.sc.lemma1BoundSq(cands, e.k); b < e.dthSq {
		e.dthSq = b
	}
	cands = pruneByDmin(cands, e.dthSq)
	sortByDmin(cands) // deterministic request order; counted as CPU sort work
	sorted = len(cands)

	reqs := e.sc.reqs[:0]
	for _, c := range cands {
		reqs = append(reqs, e.request(c.child, c.level))
	}
	if len(reqs) == 0 {
		// Possible only on an empty tree (root with no entries).
		e.done = true
	}
	return e.finishStep(reqs, scanned, sorted)
}
