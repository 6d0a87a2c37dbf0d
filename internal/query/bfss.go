package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// BFSS is Best-First Similarity Search (distance browsing, Hjaltason &
// Samet 1995/1999) — the strongest *sequential* competitor, added here
// beyond the paper's line-up to sharpen the comparison. It maintains a
// global priority queue of tree entries ordered by Dmin and always
// expands the globally nearest one, which makes it access-optimal among
// algorithms without an oracle: it reads exactly the pages whose Dmin is
// below the k-th neighbor distance (matching WOPTSS's page count up to
// ties). Like BBSS it fetches one page at a time, so on a disk array it
// pays the full latency of every access in sequence: the experiments
// show access-optimality alone does not win on response time — the
// paper's motivation for CRSS, made precise.
type BFSS struct{}

// Name implements Algorithm.
func (BFSS) Name() string { return "BFSS" }

// NewExecution implements Algorithm.
func (BFSS) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	return &bfssExec{base: newBase(t, q, k, opts), best: newBestList(k, t.Len())}
}

// bfssItem is a frontier element: a page with the Dmin of its region.
type bfssItem struct {
	distSq float64
	page   rtree.PageID
	level  int
}

// nearerPage orders the frontier (scratch.frontier, a min-heap): by
// distance, exact ties deliberately broken by the page ID.
func nearerPage(a, b bfssItem) bool {
	//lint:allow floatcmp exact-equal distances deliberately fall through to the page-ID tie-break
	if a.distSq != b.distSq {
		return a.distSq < b.distSq
	}
	return a.page < b.page
}

type bfssExec struct {
	base
	best    bestList
	started bool
}

func (e *bfssExec) Results() []Neighbor {
	return e.results(&e.best)
}

func (e *bfssExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		return e.requestRoot()
	}

	scanned, sorted := 0, 0
	for _, n := range delivered {
		scanned += n.Len()
		if n.IsLeaf() {
			e.offerLeaf(&e.best, n, e.entrySphereRectMin(n), math.Inf(1))
		} else {
			for i, d := range e.entrySphereRectMin(n) {
				if d <= e.best.kthDistSq() {
					e.sc.frontier = heapPush(e.sc.frontier, bfssItem{distSq: d, page: n.Child(i), level: n.Level - 1}, nearerPage)
					sorted++ // heap maintenance charged as sort work
				}
			}
		}
	}

	// Expand the globally nearest pending page, discarding stale
	// entries pruned by the tightened k-th distance.
	if len(e.sc.frontier) > 0 {
		it := e.sc.frontier[0]
		// Beyond the k-th distance everything else in the heap is at
		// least as far: done.
		if it.distSq <= e.best.kthDistSq() {
			e.sc.frontier = heapPop(e.sc.frontier, nearerPage)
			return e.finishStep(e.single(it.page, it.level), scanned, sorted)
		}
		e.sc.frontier = e.sc.frontier[:0]
	}

	e.done = true
	return e.finishStep(nil, scanned, sorted)
}
