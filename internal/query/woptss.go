package query

import (
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// WOPTSS is the hypothetical Weak-OPTimal Similarity Search (§3.4,
// Definition 6): an oracle supplies the exact distance Dk from the query
// point to its k-th nearest neighbor, and the algorithm fetches exactly
// the pages whose MBR intersects the sphere centered at the query with
// radius Dk — level by level, all intersecting pages of a level in one
// parallel batch. No real algorithm can know Dk in advance, so WOPTSS
// is a lower bound: its node count and response time floor every other
// method in the experiments.
type WOPTSS struct{}

// Name implements Algorithm.
func (WOPTSS) Name() string { return "WOPTSS" }

// NewExecution implements Algorithm. The oracle distance is computed
// with the tree's sequential exact k-NN; that reference pass is not
// charged to the execution's statistics (the paper assumes the distance
// is simply known).
func (WOPTSS) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	e := &woptssExec{base: newBase(t, q, k, opts)}
	nn, _ := t.NearestNeighbors(q, k)
	if len(nn) > 0 {
		e.dkSq = nn[len(nn)-1].DistSq
		e.haveOracle = true
	}
	return e
}

type woptssExec struct {
	base
	dkSq       float64
	haveOracle bool
	started    bool
}

func (e *woptssExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		if !e.haveOracle {
			// Empty tree: nothing to do.
			e.done = true
			return e.finishStep(nil, 0, 0)
		}
		return e.requestRoot()
	}

	scanned := 0
	if len(delivered) > 0 && delivered[0].IsLeaf() {
		for _, n := range delivered {
			scanned += n.Len()
			e.offerLeaf(n, e.leafDmin(n), e.dkSq)
		}
		e.done = true
		return e.finishStep(nil, scanned, 0)
	}

	// Directory level: exactly the query-sphere-intersecting children.
	// On SR-tree entries the intersected rect/sphere lower bound applies,
	// so WOPTSS stays the floor for that access method too.
	reqs := e.sc.reqs[:0]
	for _, n := range delivered {
		scanned += n.Len()
		for i, d := range e.entrySphereRectMin(n) {
			if d <= e.dkSq {
				reqs = append(reqs, e.request(n.Child(i), n.Level-1))
			}
		}
	}
	if len(reqs) == 0 {
		e.done = true
	}
	return e.finishStep(reqs, scanned, 0)
}
