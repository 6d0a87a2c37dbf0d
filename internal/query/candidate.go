package query

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// candidate is a directory entry under consideration: a child page with
// its subtree object count and the three point-to-MBR metrics.
type candidate struct {
	child  rtree.PageID
	count  int
	level  int // level of the node the entry points to
	dminSq float64
	dmmSq  float64
	dmaxSq float64
}

// candScratch holds the reusable batch-kernel output buffers of one
// makeCandidates pass, sliced out of a single allocation sized to the
// largest node seen so far. It is part of the query's scratch.
type candScratch struct {
	buf []float64
}

func (s *candScratch) views(m int) (dmin, dmm, dmax, tmp []float64) {
	if cap(s.buf) < 4*m {
		s.buf = make([]float64, 4*m)
	}
	b := s.buf[:4*m]
	return b[0*m : 1*m], b[1*m : 2*m], b[2*m : 3*m], b[3*m : 4*m]
}

// makeCandidates converts the entries of delivered internal nodes into
// candidates with their distances from q precomputed. All delivered
// nodes must share one level (batches are level-homogeneous by
// construction of the algorithms).
//
// On SR-tree entries (valid bounding sphere) the bounds of the two
// region descriptors are intersected: Dmin is the larger lower bound,
// Dmax the smaller upper bound, and the pessimistic Dmm is capped by
// the sphere's Dmax (a sphere guarantees every subtree object — hence
// at least one — within it). This is the "some modifications" the paper
// names for supporting the SR-tree family.
//
// The metrics are computed node-at-a-time with the batch kernels over
// the node's flat geometry view, which is bit-identical to the scalar
// per-entry path (appendCandidatesScalar, the fallback for mixed-sphere
// nodes; candidate_test.go runs it over every node as the reference).
//
// The returned slice is the scratch's candidate array, valid until the
// next makeCandidates call; callers prune and sort it in place and copy
// out (scratch.keep) what must outlive the stage.
func (s *scratch) makeCandidates(q geom.Point, nodes []*rtree.FlatNode) []candidate {
	out := s.cands[:0]
	for _, f := range nodes {
		m := f.Len()
		if m == 0 {
			continue
		}
		if f.MixedSpheres {
			// Some but not all entries carry spheres: no SoA sphere view
			// exists, so tighten per entry with the scalar kernels.
			out = appendCandidatesScalar(out, q, f)
			continue
		}
		dmin, dmm, dmax, tmp := s.kern.views(m)
		geom.MinDistSqBatch(q, &f.Rects, dmin)
		geom.MinMaxDistSqBatch(q, &f.Rects, dmm)
		geom.MaxDistSqBatch(q, &f.Rects, dmax)
		if f.Spheres != nil {
			geom.SphereMinDistSqBatch(q, f.Spheres, tmp)
			for i, sm := range tmp {
				if sm > dmin[i] {
					dmin[i] = sm
				}
			}
			geom.SphereMaxDistSqBatch(q, f.Spheres, tmp)
			for i, sM := range tmp {
				if sM < dmax[i] {
					dmax[i] = sM
					if sM < dmm[i] {
						dmm[i] = sM
					}
				}
			}
		}
		for i := 0; i < m; i++ {
			out = append(out, candidate{
				child:  f.Child(i),
				count:  f.Count(i),
				level:  f.Level - 1,
				dminSq: dmin[i],
				dmmSq:  dmm[i],
				dmaxSq: dmax[i],
			})
		}
	}
	s.cands = out[:0]
	return out
}

// appendCandidatesScalar is the per-entry scalar candidate pass: the
// reference implementation the batch path is tested against, and the
// fallback for nodes whose entries mix present and absent spheres.
func appendCandidatesScalar(out []candidate, q geom.Point, n *rtree.FlatNode) []candidate {
	for i, m := 0, n.Len(); i < m; i++ {
		rect, sphere := n.Rect(i), n.Sphere(i)
		c := candidate{
			child:  n.Child(i),
			count:  n.Count(i),
			level:  n.Level - 1,
			dminSq: geom.MinDistSq(q, rect),
			dmmSq:  geom.MinMaxDistSq(q, rect),
			dmaxSq: geom.MaxDistSq(q, rect),
		}
		if sphere.Valid() {
			if sm := sphere.MinDistSq(q); sm > c.dminSq {
				c.dminSq = sm
			}
			if sM := sphere.MaxDistSq(q); sM < c.dmaxSq {
				c.dmaxSq = sM
				if sM < c.dmmSq {
					c.dmmSq = sM
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// lemmaItem is what Lemma 1 reads of a candidate.
type lemmaItem struct {
	dmaxSq float64
	count  int
}

func fartherDmax(a, b lemmaItem) bool { return a.dmaxSq > b.dmaxSq }

// lemma1BoundSq computes the paper's Lemma 1 threshold: take the MBRs in
// Dmax order and find the smallest prefix whose subtree object counts
// sum to at least k; every one of the k nearest neighbors then lies
// within the sphere of radius Dmax of the prefix's last MBR. It returns
// +Inf when the candidates hold fewer than k objects (no bound can be
// derived).
//
// Only that one Dmax is wanted, so the candidates are not sorted: one
// pass keeps the prefix in a max-heap on Dmax, evicting the farthest
// member whenever the rest still covers k. The result is the smallest v
// with Σ count(Dmax ≤ v) ≥ k whatever the input order and however ties
// fall. The input is not modified.
func (s *scratch) lemma1BoundSq(cands []candidate, k int) float64 {
	h := s.lemma[:0]
	covered := 0
	for i := range cands {
		c := &cands[i]
		if covered >= k && c.dmaxSq >= h[0].dmaxSq {
			continue // beyond the prefix
		}
		h = heapPush(h, lemmaItem{dmaxSq: c.dmaxSq, count: c.count}, fartherDmax)
		covered += c.count
		for covered-h[0].count >= k {
			covered -= h[0].count
			h = heapPop(h, fartherDmax)
		}
	}
	s.lemma = h[:0]
	if covered < k {
		return math.Inf(1)
	}
	return h[0].dmaxSq
}

// sortByDmin orders candidates by increasing Dmin (ties by child page ID
// for determinism; a child appears once, so the order is total).
func sortByDmin(cands []candidate) {
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.dminSq < b.dminSq:
			return -1
		case a.dminSq > b.dminSq:
			return 1
		}
		return cmp.Compare(a.child, b.child)
	})
}

// pruneByDmin drops candidates whose Dmin exceeds the threshold
// (criterion (i): they cannot intersect the query sphere). The input
// need not be sorted; the relative order of survivors is preserved.
func pruneByDmin(cands []candidate, dthSq float64) []candidate {
	out := cands[:0]
	for _, c := range cands {
		if c.dminSq <= dthSq {
			out = append(out, c)
		}
	}
	return out
}

// runStack is the paper's candidate structure: a stack of candidate
// runs. Each run holds the candidates saved from one expansion step,
// ordered by increasing Dmin; a guard separates consecutive runs
// (modelled here by the slice boundary). Deeper-level runs sit above
// higher-level runs, so refinement continues near the leaves before the
// search backtracks toward the root.
type runStack struct {
	runs [][]candidate
}

// push adds a run (must already be Dmin-sorted). Empty runs are not
// stored.
func (s *runStack) push(run []candidate) {
	if len(run) > 0 {
		s.runs = append(s.runs, run)
	}
}

// pop removes and returns the top run, or nil when empty.
func (s *runStack) pop() []candidate {
	if len(s.runs) == 0 {
		return nil
	}
	top := s.runs[len(s.runs)-1]
	s.runs = s.runs[:len(s.runs)-1]
	return top
}

func (s *runStack) empty() bool { return len(s.runs) == 0 }

// len returns the total number of stacked candidates.
func (s *runStack) len() int {
	n := 0
	for _, r := range s.runs {
		n += len(r)
	}
	return n
}

// truncateRun applies the paper's guard optimization: scanning a
// Dmin-sorted run, the first candidate outside the query sphere rejects
// the remainder of the run wholesale. It returns the surviving prefix.
func truncateRun(run []candidate, dthSq float64) []candidate {
	for i, c := range run {
		if c.dminSq > dthSq {
			return run[:i]
		}
	}
	return run
}
