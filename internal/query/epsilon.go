package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// EpsilonSeries answers a k-NN query as a series of range queries with
// growing radius — the naive transformation the paper's Section 2.3
// warns against ("we may face unnecessary resource consumption"). Each
// attempt runs a breadth-first range query of radius ε over the parallel
// tree; if fewer than k objects fall inside, ε is multiplied by Growth
// and the search restarts from the root, re-fetching pages it already
// read. It exists as the ablation baseline quantifying that waste.
type EpsilonSeries struct {
	// Growth is the radius multiplier between attempts (default 2).
	Growth float64
}

// Name implements Algorithm.
func (e EpsilonSeries) Name() string { return "EPS-SERIES" }

// NewExecution implements Algorithm.
func (e EpsilonSeries) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	g := e.Growth
	if g <= 1 {
		g = 2
	}
	return &epsExec{base: newBase(t, q, k, opts), growth: g, epsSq: -1}
}

type epsExec struct {
	base
	growth  float64
	epsSq   float64 // current squared radius; -1 until seeded at the root
	found   []Neighbor
	started bool
}

func (e *epsExec) Results() []Neighbor {
	out := append([]Neighbor(nil), e.found...)
	sortNeighbors(out)
	if len(out) > e.k {
		out = out[:e.k]
	}
	return out
}

// restart begins a new attempt with a larger radius by re-requesting the
// root page.
func (e *epsExec) restart() StepResult {
	e.found = e.found[:0]
	e.epsSq *= e.growth * e.growth
	return e.requestRoot()
}

func (e *epsExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		return e.requestRoot()
	}

	scanned := 0
	if len(delivered) > 0 && delivered[0].IsLeaf() {
		if e.epsSq < 0 {
			// Single-level tree: the root is a leaf and no directory
			// statistics exist — scan it whole.
			e.epsSq = math.MaxFloat64 / 4
		}
		for _, n := range delivered {
			scanned += n.Len()
			for i, d := range e.leafDmin(n) {
				if d <= e.epsSq {
					e.found = append(e.found, Neighbor{Object: n.Object(i), Point: n.Point(i), DistSq: d})
				}
			}
		}
		if len(e.found) >= e.k || len(e.found) >= e.tree.Len() {
			e.done = true
			return e.finishStep(nil, scanned, 0)
		}
		// Not enough answers: grow the radius and redo everything.
		sr := e.restart()
		sr.Instructions += cpuCost(scanned, 0)
		e.stats.Scanned += scanned
		e.stats.Instructions += cpuCost(scanned, 0)
		return sr
	}

	// Directory level.
	cands := e.sc.makeCandidates(e.q, delivered)
	scanned += len(cands)
	if e.epsSq < 0 {
		// Seed the initial radius from the Lemma-1 bound at the root —
		// an optimistic guess a real system might derive from
		// statistics — shrunk so that undershooting (and hence radius
		// growth) actually occurs, as in the paper's discussion.
		b := e.sc.lemma1BoundSq(cands, e.k)
		if math.IsInf(b, 1) {
			// Fewer than k objects in the tree: cover everything.
			b = math.MaxFloat64 / 4
		}
		e.epsSq = b / 16
	}
	reqs := e.sc.reqs[:0]
	for _, c := range cands {
		if c.dminSq <= e.epsSq {
			reqs = append(reqs, e.request(c.child, c.level))
		}
	}
	if len(reqs) == 0 {
		// The sphere misses every branch: radius too small.
		if e.tree.Len() == 0 {
			e.done = true
			return e.finishStep(nil, scanned, 0)
		}
		sr := e.restart()
		sr.Instructions += cpuCost(scanned, 0)
		e.stats.Scanned += scanned
		e.stats.Instructions += cpuCost(scanned, 0)
		return sr
	}
	return e.finishStep(reqs, scanned, 0)
}
