package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// BBSS is the Branch-and-Bound Similarity Search of Roussopoulos, Kelley
// & Vincent (SIGMOD 1995), the paper's sequential baseline (§3.1). It
// performs a depth-first traversal ordered by Dmin, pruning with the
// three rules of that paper; for general k it discards an MBR when its
// Dmin exceeds the distance to the current k-th nearest neighbor, and
// for k = 1 it additionally exploits the MINMAXDIST (Dmm) upper bound
// (rules 1–2 are only sound for a single neighbor).
//
// On a disk array BBSS fetches exactly one page per step: it has no
// intra-query parallelism (Table 5), which is what the response-time
// experiments expose.
type BBSS struct{}

// Name implements Algorithm.
func (BBSS) Name() string { return "BBSS" }

// NewExecution implements Algorithm.
func (BBSS) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	return &bbssExec{base: newBase(t, q, k, opts), best: newBestList(k, t.Len()), dmmBoundSq: math.Inf(1)}
}

// bbssFrame is one level of the explicit DFS stack (scratch.frames):
// the pruned active branch list of a visited node, in Dmin order and cut
// from the scratch arena, and the scan cursor.
type bbssFrame struct {
	abl []candidate
	idx int
}

type bbssExec struct {
	base
	best    bestList
	started bool
	// upper bounds the answer distance for k == 1 via Dmm (rule 2).
	dmmBoundSq float64
}

func (e *bbssExec) Results() []Neighbor {
	return e.results(&e.best)
}

// pruneDistSq is the current rule-3 pruning radius: the k-th best actual
// distance, tightened for k == 1 by the best Dmm seen (rules 1–2).
func (e *bbssExec) pruneDistSq() float64 {
	d := e.best.kthDistSq()
	if e.k == 1 && e.dmmBoundSq < d {
		d = e.dmmBoundSq
	}
	return d
}

func (e *bbssExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		return e.requestRoot()
	}

	scanned, sorted := 0, 0
	// Process the delivered page (BBSS always requests exactly one).
	for ni, n := range delivered {
		if n.IsLeaf() {
			scanned += n.Len()
			e.offerLeaf(&e.best, n, e.leafDmin(n), math.Inf(1))
		} else {
			cands := e.sc.makeCandidates(e.q, delivered[ni:ni+1])
			scanned += len(cands)
			if e.k == 1 {
				for _, c := range cands {
					if c.dmmSq < e.dmmBoundSq {
						e.dmmBoundSq = c.dmmSq
					}
				}
			}
			cands = pruneByDmin(cands, e.pruneDistSq())
			sortByDmin(cands)
			sorted += len(cands)
			e.sc.frames = append(e.sc.frames, bbssFrame{abl: e.sc.keep(cands)})
		}
	}

	// Descend into the next unpruned branch, backtracking as needed
	// (rule 3 is re-applied lazily at visit time: the pruning radius may
	// have shrunk since the frame was built).
	for len(e.sc.frames) > 0 {
		top := &e.sc.frames[len(e.sc.frames)-1]
		for top.idx < len(top.abl) {
			c := top.abl[top.idx]
			top.idx++
			if c.dminSq <= e.pruneDistSq() {
				return e.finishStep(e.single(c.child, c.level), scanned, sorted)
			}
			// Dmin-sorted: the rest of this frame is pruned too.
			top.idx = len(top.abl)
		}
		e.sc.frames = e.sc.frames[:len(e.sc.frames)-1]
	}

	e.done = true
	return e.finishStep(nil, scanned, sorted)
}
