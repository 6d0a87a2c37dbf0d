package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func xTree(t *testing.T, dim, maxEntries int) *Tree {
	t.Helper()
	tr, err := New(Config{Dim: dim, MaxEntries: maxEntries, MaxOverlapRatio: 0.2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func countSupernodes(tr *Tree) (supers, maxPages int) {
	cap := tr.cfg.MaxEntries
	tr.Walk(func(n *Node, _ int) bool {
		if p := n.Pages(cap); p > 1 {
			supers++
			if p > maxPages {
				maxPages = p
			}
		}
		return true
	})
	return
}

func TestXTreeFormsSupernodesInHighDim(t *testing.T) {
	// 10-d uniform data produces heavily overlapping directory splits —
	// the regime the X-tree was designed for.
	tr := xTree(t, 10, 16)
	pts := randPoints(111, 4000, 10)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	supers, maxPages := countSupernodes(tr)
	if supers == 0 {
		t.Error("no supernodes formed on 10-d uniform data")
	}
	if maxPages < 2 {
		t.Error("supernodes not spanning multiple pages")
	}
	t.Logf("supernodes: %d (largest %d pages)", supers, maxPages)
	// Leaves never become supernodes.
	tr.Walk(func(n *Node, _ int) bool {
		if n.IsLeaf() && len(n.Entries) > tr.cfg.MaxEntries {
			t.Errorf("leaf %d oversized", n.ID)
		}
		return true
	})
}

func TestXTreeRarelySupernodesIn2D(t *testing.T) {
	// Low-dimensional splits are clean, so the X-tree should behave
	// like an R*-tree there.
	tr := xTree(t, 2, 16)
	pts := randPoints(112, 4000, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	supers, _ := countSupernodes(tr)
	if supers > 2 {
		t.Errorf("%d supernodes on 2-d data, expected ~0", supers)
	}
}

func TestXTreeQueriesExact(t *testing.T) {
	tr := xTree(t, 8, 12)
	pts := randPoints(113, 2000, 8)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	rnd := rand.New(rand.NewSource(114))
	for trial := 0; trial < 10; trial++ {
		q := make(geom.Point, 8)
		for d := range q {
			q[d] = rnd.Float64() * 1000
		}
		k := 1 + rnd.Intn(30)
		got, _ := tr.NearestNeighbors(q, k)
		want := bruteKNN(pts, q, k)
		for i := range got {
			if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d rank %d mismatch", trial, i)
			}
		}
	}
}

func TestXTreeDeletes(t *testing.T) {
	tr := xTree(t, 6, 10)
	pts := randPoints(115, 1500, 6)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	for i := 0; i < 1000; i++ {
		if !tr.DeletePoint(pts[i], ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestNodePages(t *testing.T) {
	n := &Node{Entries: make([]Entry, 25)}
	if n.Pages(10) != 3 {
		t.Errorf("Pages(10) = %d, want 3", n.Pages(10))
	}
	if n.Pages(25) != 1 {
		t.Errorf("Pages(25) = %d, want 1", n.Pages(25))
	}
	if n.Pages(0) != 1 {
		t.Errorf("Pages(0) = %d, want 1", n.Pages(0))
	}
}

func TestSplitOverlapRatio(t *testing.T) {
	mk := func(x1, y1, x2, y2 float64) []Entry {
		return []Entry{{Rect: geom.NewRect(geom.Point{x1, y1}, geom.Point{x2, y2}), Count: 1}}
	}
	if r := splitOverlapRatio(mk(0, 0, 1, 1), mk(2, 2, 3, 3)); r != 0 {
		t.Errorf("disjoint ratio = %g", r)
	}
	if r := splitOverlapRatio(mk(0, 0, 2, 2), mk(0, 0, 2, 2)); r != 1 {
		t.Errorf("identical ratio = %g", r)
	}
	// Half-overlapping unit squares: ov = 0.5, union = 1.5 → 1/3.
	if r := splitOverlapRatio(mk(0, 0, 1, 1), mk(0.5, 0, 1.5, 1)); r < 0.33 || r > 0.34 {
		t.Errorf("half overlap ratio = %g", r)
	}
}
