package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// makeCandidatesScalar is the all-scalar equivalent of makeCandidates:
// the reference the batch path is tested and benchmarked against.
func makeCandidatesScalar(q geom.Point, nodes []*rtree.FlatNode) []candidate {
	var out []candidate
	for _, n := range nodes {
		out = appendCandidatesScalar(out, q, n)
	}
	return out
}

func cand(child int, dmin, dmm, dmax float64, count int) candidate {
	return candidate{
		child: rtree.PageID(child), count: count,
		dminSq: dmin, dmmSq: dmm, dmaxSq: dmax,
	}
}

func TestLemma1Bound(t *testing.T) {
	// Sorted by dmax: counts 3, 4, 5. k=5 needs the first two (3+4 ≥ 5),
	// so the bound is the 2nd entry's dmax.
	cands := []candidate{
		cand(1, 0, 1, 4, 3),
		cand(2, 1, 2, 9, 4),
		cand(3, 2, 3, 16, 5),
	}
	if got := new(scratch).lemma1BoundSq(cands, 5); got != 9 {
		t.Errorf("lemma1(k=5) = %g, want 9", got)
	}
	if got := new(scratch).lemma1BoundSq(cands, 1); got != 4 {
		t.Errorf("lemma1(k=1) = %g, want 4", got)
	}
	if got := new(scratch).lemma1BoundSq(cands, 12); got != 16 {
		t.Errorf("lemma1(k=12) = %g, want 16", got)
	}
	// Fewer than k objects: no bound.
	if got := new(scratch).lemma1BoundSq(cands, 13); !math.IsInf(got, 1) {
		t.Errorf("lemma1(k=13) = %g, want +Inf", got)
	}
	if got := new(scratch).lemma1BoundSq(nil, 1); !math.IsInf(got, 1) {
		t.Errorf("lemma1(empty) = %g, want +Inf", got)
	}
}

// lemma1BySort is Lemma 1 as the paper words it — sort the MBRs by Dmax,
// take the shortest prefix whose counts cover k — and the reference the
// selection in lemma1BoundSq is tested against.
func lemma1BySort(cands []candidate, k int) float64 {
	byDmax := make([]candidate, len(cands))
	copy(byDmax, cands)
	sort.Slice(byDmax, func(i, j int) bool { return byDmax[i].dmaxSq < byDmax[j].dmaxSq })
	cum := 0
	for _, c := range byDmax {
		cum += c.count
		if cum >= k {
			return c.dmaxSq
		}
	}
	return math.Inf(1)
}

// TestLemma1SelectionMatchesSort is the property test of the selection
// against the sort-based reference: duplicated Dmax values, counts of 1,
// too few objects for k, and k beyond a 16-entry prefix, with one
// scratch reused across cases as a query reuses it across stages.
func TestLemma1SelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	sc := new(scratch)
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(60)
		maxCount := []int{1, 3, 50}[rng.Intn(3)]
		distinct := 1 + rng.Intn(12) // few distinct Dmax values: many ties
		cands := make([]candidate, n)
		total := 0
		for i := range cands {
			cands[i] = cand(i, 0, 0, float64(rng.Intn(distinct)), 1+rng.Intn(maxCount))
			if rng.Intn(4) == 0 {
				cands[i].dmaxSq = rng.Float64() * 12
			}
			total += cands[i].count
		}
		for _, k := range []int{1, 2, 10, 17, 40, total, total + 1} {
			if k < 1 {
				continue
			}
			got, want := sc.lemma1BoundSq(cands, k), lemma1BySort(cands, k)
			if got != want {
				t.Fatalf("trial %d: n=%d total=%d k=%d: selection %g, sort %g\n%+v",
					trial, n, total, k, got, want, cands)
			}
		}
	}
}

func TestLemma1UnsortedInput(t *testing.T) {
	// The bound must not depend on input order.
	cands := []candidate{
		cand(3, 2, 3, 16, 5),
		cand(1, 0, 1, 4, 3),
		cand(2, 1, 2, 9, 4),
	}
	if got := new(scratch).lemma1BoundSq(cands, 5); got != 9 {
		t.Errorf("unsorted lemma1 = %g, want 9", got)
	}
	// And the input slice must not be reordered.
	if cands[0].child != 3 {
		t.Error("lemma1BoundSq mutated its input")
	}
}

func TestPruneByDmin(t *testing.T) {
	cands := []candidate{
		cand(1, 1, 0, 0, 1),
		cand(2, 5, 0, 0, 1),
		cand(3, 2, 0, 0, 1),
	}
	out := pruneByDmin(cands, 2)
	if len(out) != 2 || out[0].child != 1 || out[1].child != 3 {
		t.Errorf("prune result %+v", out)
	}
}

func TestRunStackLIFO(t *testing.T) {
	var s runStack
	s.push([]candidate{cand(1, 0, 0, 0, 1)})
	s.push(nil) // empty runs vanish
	s.push([]candidate{cand(2, 0, 0, 0, 1), cand(3, 0, 0, 0, 1)})
	if s.len() != 3 {
		t.Errorf("stack len %d, want 3", s.len())
	}
	top := s.pop()
	if len(top) != 2 || top[0].child != 2 {
		t.Errorf("pop = %+v", top)
	}
	if s.pop()[0].child != 1 {
		t.Error("wrong second pop")
	}
	if !s.empty() || s.pop() != nil {
		t.Error("stack should be empty")
	}
}

func TestTruncateRun(t *testing.T) {
	run := []candidate{
		cand(1, 1, 0, 0, 1),
		cand(2, 4, 0, 0, 1),
		cand(3, 9, 0, 0, 1),
	}
	if got := truncateRun(run, 5); len(got) != 2 {
		t.Errorf("truncate at 5: %d survivors", len(got))
	}
	if got := truncateRun(run, 0.5); len(got) != 0 {
		t.Errorf("truncate at 0.5: %d survivors", len(got))
	}
	if got := truncateRun(run, 100); len(got) != 3 {
		t.Errorf("truncate at 100: %d survivors", len(got))
	}
}

func TestSortByDminDeterministicTies(t *testing.T) {
	cands := []candidate{
		cand(9, 1, 0, 0, 1),
		cand(3, 1, 0, 0, 1),
		cand(5, 0, 0, 0, 1),
	}
	sortByDmin(cands)
	if cands[0].child != 5 || cands[1].child != 3 || cands[2].child != 9 {
		t.Errorf("tie order: %+v", cands)
	}
}

func TestMakeCandidatesSphereTightening(t *testing.T) {
	q := geom.Point{0, 0}
	rect := geom.NewRect(geom.Point{3, 0}, geom.Point{5, 0})
	// A sphere tighter than the rect on both sides.
	sph := geom.Sphere{Center: geom.Point{4, 0}, Radius: 0.5}
	n := &rtree.Node{ID: 1, Level: 1, Entries: []rtree.Entry{
		{Rect: rect, Sphere: sph, Child: 2, Count: 10},
	}}
	c := new(scratch).makeCandidates(q, []*rtree.FlatNode{n.Flat()})[0]
	// Rect dmin² = 9; sphere dmin = 3.5 → 12.25 (tighter lower bound).
	if math.Abs(c.dminSq-12.25) > 1e-9 {
		t.Errorf("dmin² = %g, want 12.25", c.dminSq)
	}
	// Rect dmax² = 25; sphere dmax = 4.5 → 20.25 (tighter upper bound).
	if math.Abs(c.dmaxSq-20.25) > 1e-9 {
		t.Errorf("dmax² = %g, want 20.25", c.dmaxSq)
	}
	// Dmm capped by the sphere's dmax.
	if c.dmmSq > 20.25+1e-9 {
		t.Errorf("dmm² = %g exceeds sphere cap", c.dmmSq)
	}
	// Level recorded as the child's level.
	if c.level != 0 {
		t.Errorf("level = %d", c.level)
	}
}

// TestMakeCandidatesBatchScalarParity checks the batch candidate pass
// against the per-entry scalar reference, bit-for-bit, across the three
// sphere configurations a node can have: none, all, and mixed (which
// must take the scalar fallback).
func TestMakeCandidatesBatchScalarParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 3, 4, 6} {
		for _, mode := range []string{"none", "all", "mixed"} {
			q := make(geom.Point, dim)
			for a := range q {
				q[a] = rng.NormFloat64() * 50
			}
			var nodes []*rtree.FlatNode
			for nn := 0; nn < 3; nn++ {
				n := &rtree.Node{ID: rtree.PageID(nn + 1), Level: 2}
				for i := 0; i < 17; i++ {
					lo := make(geom.Point, dim)
					hi := make(geom.Point, dim)
					for a := 0; a < dim; a++ {
						x, y := rng.NormFloat64()*50, rng.NormFloat64()*50
						if x > y {
							x, y = y, x
						}
						lo[a], hi[a] = x, y
					}
					e := rtree.Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, Child: rtree.PageID(100 + i), Count: 1 + rng.Intn(40)}
					withSphere := mode == "all" || (mode == "mixed" && i%2 == 0)
					if withSphere {
						c := make(geom.Point, dim)
						for a := range c {
							c[a] = rng.NormFloat64() * 50
						}
						e.Sphere = geom.Sphere{Center: c, Radius: math.Abs(rng.NormFloat64() * 20)}
					}
					n.Entries = append(n.Entries, e)
				}
				nodes = append(nodes, n.Flat())
			}
			got := new(scratch).makeCandidates(q, nodes)
			want := makeCandidatesScalar(q, nodes)
			if len(got) != len(want) {
				t.Fatalf("%s/d=%d: %d candidates, want %d", mode, dim, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/d=%d: candidate %d diverged: batch %+v scalar %+v",
						mode, dim, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMakeCandidatesInvalidation checks that mutating a node through
// Store.Update drops its cached flat view, so a later candidate pass
// sees the new geometry.
func TestMakeCandidatesInvalidation(t *testing.T) {
	st := rtree.NewMemStore()
	n := st.Allocate(1)
	n.Entries = append(n.Entries, rtree.Entry{
		Rect: geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2}), Child: 7, Count: 3,
	})
	st.Update(n)
	q := geom.Point{0, 0}
	before := new(scratch).makeCandidates(q, []*rtree.FlatNode{n.Flat()})[0].dminSq
	n.Entries[0].Rect = geom.NewRect(geom.Point{3, 4}, geom.Point{5, 6})
	st.Update(n)
	after := new(scratch).makeCandidates(q, []*rtree.FlatNode{n.Flat()})[0].dminSq
	if before != 2 || after != 25 {
		t.Fatalf("dmin² before/after update = %g/%g, want 2/25", before, after)
	}
}

func TestCPUCostModel(t *testing.T) {
	if got := cpuCost(10, 0); got != 20 {
		t.Errorf("scan-only cost = %g, want 20", got)
	}
	// 2N + 3M·log2(M): N=10, M=8 → 20 + 24·3 = 92.
	if got := cpuCost(10, 8); got != 92 {
		t.Errorf("cost = %g, want 92", got)
	}
	if got := cpuCost(0, 1); got != 0 {
		t.Errorf("single sorted item should cost nothing: %g", got)
	}
}
