package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// pointTree is a 2-d tree whose leaves hold 20 points under directory
// nodes of 8, as the page layout sizes them; an SR tree with spheres.
func pointTree(t *testing.T, spheres bool) *Tree {
	t.Helper()
	tr, err := New(Config{Dim: 2, MaxEntries: 8, LeafMaxEntries: 20, UseSpheres: spheres}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomPoints(rnd *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rnd.Float64(), rnd.Float64()}
	}
	return pts
}

// A tree, R* or SR, stores each point once and with no sphere, keeps
// every leaf within the leaf capacity and every directory node within
// the directory's, and its live leaves view as one column set.
func TestPointLeavesTree(t *testing.T) {
	for _, spheres := range []bool{false, true} {
		testPointLeaves(t, pointTree(t, spheres))
	}
}

func testPointLeaves(t *testing.T, tr *Tree) {
	rnd := rand.New(rand.NewSource(48))
	pts := randomPoints(rnd, 2000)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		if !tr.DeletePoint(pts[i], ObjectID(i)) {
			t.Fatalf("delete of live object %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves, fuller := 0, 0
	tr.Walk(func(n *Node, _ int) bool {
		if !n.IsLeaf() {
			if len(n.Entries) > 8 {
				t.Errorf("directory node %d holds %d entries, capacity 8", n.ID, len(n.Entries))
			}
			if f := n.Flat(); &f.Rects.Lo[0] == &f.Rects.Hi[0] || (f.Spheres != nil) != tr.cfg.UseSpheres {
				t.Errorf("directory node %d views as points, or its spheres are wrong", n.ID)
			}
			return true
		}
		leaves++
		if len(n.Entries) > 8 {
			fuller++ // only the leaf capacity allows it
		}
		for i := range n.Entries {
			if e := n.Entries[i]; &e.Rect.Lo[0] != &e.Rect.Hi[0] || e.Sphere.Valid() {
				t.Fatalf("leaf %d entry %d: the point is stored twice, or with a sphere", n.ID, i)
			}
		}
		f := n.Flat()
		if &f.Rects.Lo[0] != &f.Rects.Hi[0] || f.Spheres != nil {
			t.Errorf("leaf %d: live view is not one column set", n.ID)
		}
		out := make([]float64, f.Len())
		geom.PointDistSqBatch(pts[0], f.Rects.Lo, out)
		for i := range out {
			if want := geom.MinDistSq(pts[0], n.Entries[i].Rect); out[i] != want {
				t.Fatalf("leaf %d entry %d: point kernel %g, Dmin %g", n.ID, i, out[i], want)
			}
		}
		return true
	})
	if fuller == 0 {
		t.Errorf("no leaf of %d holds more than the directory capacity", leaves)
	}
	if st := tr.ComputeStats(); st.AvgLeafFill > 1 || st.AvgLeafFill < 0.4 {
		t.Errorf("AvgLeafFill %.3f outside [0.4, 1]: not measured against the leaf capacity", st.AvgLeafFill)
	}
}

// ComputeStats measures leaves against the leaf capacity and the
// directory against its own.
func TestStatsFillPerLevel(t *testing.T) {
	tr := pointTree(t, false)
	for i, p := range randomPoints(rand.New(rand.NewSource(1)), 3000) {
		if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var leafEntries, leaves, dirEntries, dirs int
	tr.Walk(func(n *Node, _ int) bool {
		if n.IsLeaf() {
			leafEntries, leaves = leafEntries+len(n.Entries), leaves+1
		} else {
			dirEntries, dirs = dirEntries+len(n.Entries), dirs+1
		}
		return true
	})
	st := tr.ComputeStats()
	if want := float64(leafEntries) / float64(20*leaves); st.AvgLeafFill != want {
		t.Errorf("AvgLeafFill = %g, want %g", st.AvgLeafFill, want)
	}
	if want := float64(dirEntries) / float64(8*dirs); st.AvgDirFill != want {
		t.Errorf("AvgDirFill = %g, want %g", st.AvgDirFill, want)
	}
}

// An STR bulk load tiles the leaves at the leaf capacity and the levels
// above at the directory's.
func TestBulkLoadTilesLeavesAtLeafCapacity(t *testing.T) {
	tr := pointTree(t, false)
	pts := randomPoints(rand.New(rand.NewSource(2)), 1000)
	if err := tr.BulkLoadSTR(pts); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := 0
	tr.Walk(func(n *Node, _ int) bool {
		if n.IsLeaf() {
			leaves++
			if f := n.Flat(); &f.Rects.Lo[0] != &f.Rects.Hi[0] {
				t.Errorf("packed leaf %d is not one column set", n.ID)
			}
		} else if len(n.Entries) > 8 {
			t.Errorf("packed directory node %d holds %d entries, capacity 8", n.ID, len(n.Entries))
		}
		return true
	})
	// 1 000 points at 20 a leaf: 50 full leaves; STR's slab remainders
	// may leave a few more, never the 125 of an 8-entry tiling.
	if leaves < 50 || leaves > 60 {
		t.Errorf("%d packed leaves, want about 50 (1 000 points, 20 a leaf)", leaves)
	}
}

// The coordinate bound is derived from the larger capacity: a leaf of
// points overflows at LeafMaxEntries+1 entries.
func TestCoordBoundUsesLargerCapacity(t *testing.T) {
	bound := func(cfg Config) float64 {
		tr, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr.CoordBound()
	}
	mixed := bound(Config{Dim: 2, MaxEntries: 8, LeafMaxEntries: 20})
	if wide := bound(Config{Dim: 2, MaxEntries: 20}); mixed != wide {
		t.Errorf("bound with leaf capacity 20 = %g, want the 20-entry tree's %g", mixed, wide)
	}
	if narrow := bound(Config{Dim: 2, MaxEntries: 8}); !(mixed < narrow) {
		t.Errorf("bound %g not below the 8-entry tree's %g", mixed, narrow)
	}
	if got := bound(Config{Dim: 2, MaxEntries: 20, LeafMaxEntries: 8}); got != mixed {
		t.Errorf("bound with directory capacity 20 = %g, want %g", got, mixed)
	}
}
