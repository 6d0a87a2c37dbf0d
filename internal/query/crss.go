package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// CRSS is the Candidate-Reduction Similarity Search, the paper's
// contribution (§3.3). It interleaves breadth-first and depth-first
// traversal of the parallel R*-tree:
//
//   - While descending (ADAPTIVE mode) it derives a threshold distance
//     Dth from Lemma 1 — the Dmax-sorted prefix of entries whose subtree
//     counts cover k objects — and applies the candidate-reduction
//     criterion: entries with Dmin > Dth are rejected, entries with
//     Dmm < Dth are activated, and the rest are saved in the candidate
//     stack for possible later use.
//   - The activation batch is bounded: at least enough MBRs to guarantee
//     k objects (the paper's l), at most one per disk (u = NumOfDisks),
//     balancing parallelism against wasted fetches.
//   - When data pages arrive (UPDATE mode) the running k-best list
//     tightens Dth to the actual k-th distance, and the next candidate
//     run is popped from the stack (NORMAL mode). Runs are Dmin-sorted,
//     so the first candidate outside the query sphere rejects the rest
//     of its run (the guard optimization).
//
// Termination (TERMINATE mode) occurs when no requests are outstanding
// and the candidate stack has drained.
type CRSS struct {
	// ActivationBound overrides the activation upper bound u. Zero (the
	// paper's choice) uses the number of disks; 1 degenerates toward
	// BBSS-like sequential fetching, a large value toward FPSS. Used by
	// the activation-bound ablation.
	ActivationBound int
}

// Name implements Algorithm.
func (CRSS) Name() string { return "CRSS" }

// NewExecution implements Algorithm.
func (c CRSS) NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution {
	u := c.ActivationBound
	if u <= 0 {
		u = t.NumDisks()
	}
	return &crssExec{
		base:  newBase(t, q, k, opts),
		best:  newBestList(k, t.Len()),
		dthSq: math.Inf(1),
		u:     u,
	}
}

type crssExec struct {
	base
	best          bestList
	dthSq         float64
	u             int // activation upper bound: the number of disks
	started       bool
	reachedLeaves bool
}

func (e *crssExec) Results() []Neighbor {
	return e.results(&e.best)
}

func (e *crssExec) Step(delivered []*rtree.FlatNode) StepResult {
	if !e.started {
		e.started = true
		if e.opts.Trace != nil {
			e.tracef("CRSS start: k=%d, u=%d, read root", e.k, e.u)
		}
		return e.requestRoot()
	}

	scanned, sorted := 0, 0

	if len(delivered) > 0 {
		if delivered[0].IsLeaf() {
			// UPDATE mode: data objects tighten the threshold.
			e.reachedLeaves = true
			for _, n := range delivered {
				scanned += n.Len()
				e.offerLeaf(&e.best, n, e.leafDmin(n), math.Inf(1))
			}
			if kth := e.best.kthDistSq(); kth < e.dthSq {
				e.dthSq = kth
			}
			if e.opts.Trace != nil {
				e.tracef("UPDATE: %d data pages, Dth²=%.6g, stack=%d candidates",
					len(delivered), e.dthSq, e.sc.stack.len())
			}
		} else {
			// ADAPTIVE (before the leaf level) or NORMAL: process the
			// fetched directory pages.
			cands := e.sc.makeCandidates(e.q, delivered)
			scanned += len(cands)
			if b := e.sc.lemma1BoundSq(cands, e.k); b < e.dthSq {
				e.dthSq = b // adapt the threshold from this level
			}
			cands = pruneByDmin(cands, e.dthSq) // criterion (i): reject
			sortByDmin(cands)
			sorted += len(cands)

			// Criterion (ii)/(iii): split into active and saved.
			actives, saved := e.sc.actives[:0], e.sc.saved[:0]
			for _, c := range cands {
				if c.dmmSq < e.dthSq {
					actives = append(actives, c)
				} else {
					saved = append(saved, c)
				}
			}

			// Upper bound u: demote the farthest actives back to the
			// candidate set.
			if len(actives) > e.u {
				saved = append(saved, actives[e.u:]...)
				sortByDmin(saved)
				actives = actives[:e.u]
			}
			e.sc.saved = saved[:0] // keep what the stage grew; saved only shrinks from here
			// Lower bound l: guarantee that the activated MBRs contain
			// at least k objects, promoting the nearest saved
			// candidates while disks remain.
			covered := 0
			for _, a := range actives {
				covered += a.count
			}
			for covered < e.k && len(actives) < e.u && len(saved) > 0 {
				p := saved[0]
				saved = saved[1:]
				actives = append(actives, p)
				covered += p.count
			}
			// Ensure progress: if criterion (ii) activated nothing and
			// counts already cover k (possible when every MBR has
			// Dmm >= Dth), activate the nearest candidate anyway.
			if len(actives) == 0 && len(saved) > 0 {
				actives = append(actives, saved[0])
				saved = saved[1:]
			}

			e.sc.actives = actives[:0]
			e.sc.stack.push(e.sc.keep(saved))
			if e.opts.Trace != nil {
				mode := "NORMAL"
				if !e.reachedLeaves {
					mode = "ADAPTIVE"
				}
				e.tracef("%s: Dth²=%.6g, %d scanned → %d active, %d saved",
					mode, e.dthSq, scanned, len(actives), len(saved))
			}
			if len(actives) > 0 {
				return e.finishStep(e.activate(actives), scanned, sorted)
			}
		}
	}

	// NORMAL mode / after UPDATE: pop candidate runs until one yields an
	// activation batch.
	for !e.sc.stack.empty() {
		run := e.sc.stack.pop()
		scanned += len(run)
		run = truncateRun(run, e.dthSq) // guard: reject the run's tail
		if len(run) == 0 {
			continue
		}
		cut := e.u
		if cut > len(run) {
			cut = len(run)
		}
		actives := run[:cut]
		e.sc.stack.push(run[cut:]) // remainder stays a run at the top
		if e.opts.Trace != nil {
			e.tracef("NORMAL: popped run, %d survived guard, activating %d", len(run), len(actives))
		}
		return e.finishStep(e.activate(actives), scanned, sorted)
	}

	e.done = true
	if e.opts.Trace != nil {
		e.tracef("TERMINATE: %d results, %d nodes visited", len(e.best.items), e.stats.NodesVisited)
	}
	return e.finishStep(nil, scanned, sorted)
}

// activate builds the stage's requests for the activated candidates.
func (e *crssExec) activate(actives []candidate) []PageRequest {
	reqs := e.sc.reqs[:0]
	for _, a := range actives {
		reqs = append(reqs, e.request(a.child, a.level))
	}
	return reqs
}
