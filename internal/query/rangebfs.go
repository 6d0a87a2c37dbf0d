package query

import (
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// RangeBFS executes a similarity range query (Definition 1: all objects
// within Eps of the query point) breadth-first over the parallel tree,
// fetching every intersecting page of a level in one parallel batch.
// This is the workload the multiplexed R-tree of Kamel & Faloutsos was
// designed for (paper §2.2): the visiting order is irrelevant for range
// queries, so full parallelism has no downside.
//
// RangeBFS implements Algorithm so the same drivers and the timed
// simulator run it; the k parameter of NewExecution is ignored (a range
// query's result size is data-dependent).
type RangeBFS struct {
	Eps float64
}

// Name implements Algorithm.
func (RangeBFS) Name() string { return "RANGE-BFS" }

// NewExecution implements Algorithm.
func (r RangeBFS) NewExecution(t *parallel.Tree, q geom.Point, _ int, opts Options) Execution {
	return &rangeExec{base: newBase(t, q, 0, opts), epsSq: r.Eps * r.Eps}
}

type rangeExec struct {
	base
	epsSq   float64
	found   []Neighbor
	started bool
}

func (e *rangeExec) Results() []Neighbor {
	out := append([]Neighbor(nil), e.found...)
	sortNeighbors(out)
	return out
}

func (e *rangeExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		return e.requestRoot()
	}
	scanned := 0
	if len(delivered) > 0 && delivered[0].IsLeaf() {
		for _, n := range delivered {
			scanned += n.Len()
			for i, d := range e.leafDmin(n) {
				if d <= e.epsSq {
					e.found = append(e.found, Neighbor{Object: n.Object(i), Point: n.Point(i), DistSq: d})
				}
			}
		}
		e.done = true
		return e.finishStep(nil, scanned, 0)
	}
	reqs := e.sc.reqs[:0]
	for _, n := range delivered {
		scanned += n.Len()
		for i, d := range e.entrySphereRectMin(n) {
			if d <= e.epsSq {
				reqs = append(reqs, e.request(n.Child(i), n.Level-1))
			}
		}
	}
	if len(reqs) == 0 {
		e.done = true
	}
	return e.finishStep(reqs, scanned, 0)
}
