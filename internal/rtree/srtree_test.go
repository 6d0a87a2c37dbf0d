package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func srTree(t *testing.T, dim, maxEntries int) *Tree {
	t.Helper()
	tr, err := New(Config{Dim: dim, MaxEntries: maxEntries, UseSpheres: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The SR-tree descends into the entry whose sphere center is nearest to
// the new point; among centers at the same distance, into the smallest
// sphere, and among equal spheres into the first.
func TestSRChooseSubtreeTieBreak(t *testing.T) {
	node := func(radii ...float64) *Node {
		n := &Node{Level: 1}
		centers := []geom.Point{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
		for i, r := range radii {
			n.Entries = append(n.Entries, Entry{Sphere: geom.Sphere{Center: centers[i], Radius: r}})
		}
		return n
	}
	tr := srTree(t, 2, 8)
	for _, c := range []struct {
		radii []float64
		want  int
	}{
		{[]float64{2, 1, 3}, 1},
		{[]float64{1, 2, 3}, 0},
		{[]float64{3, 2, 1}, 2},
		{[]float64{2, 1, 1, 3}, 1},
	} {
		e := LeafEntry(geom.Point{0, 0}, 1)
		if got := tr.chooseSubtree(node(c.radii...), e); got != c.want {
			t.Errorf("centers equidistant, radii %v: chose entry %d, want %d", c.radii, got, c.want)
		}
	}
	// Nearer wins over smaller.
	n := node(5, 1)
	n.Entries[0].Sphere.Center = geom.Point{0.5, 0}
	if got := tr.chooseSubtree(n, LeafEntry(geom.Point{0, 0}, 1)); got != 0 {
		t.Errorf("chose entry %d, want the nearer center 0", got)
	}
}

func TestSRInvariantsUnderInserts(t *testing.T) {
	tr := srTree(t, 3, 10)
	pts := randPoints(21, 1500, 3)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
		if i%487 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every directory entry must carry a sphere, and no leaf entry.
	tr.Walk(func(n *Node, _ int) bool {
		for i, e := range n.Entries {
			if e.Sphere.Valid() == n.IsLeaf() {
				t.Errorf("node %d (level %d) entry %d: sphere %v", n.ID, n.Level, i, e.Sphere)
			}
		}
		return true
	})
}

func TestSRInvariantsUnderDeletes(t *testing.T) {
	tr := srTree(t, 2, 8)
	pts := randPoints(22, 800, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	for i := 0; i < 600; i++ {
		if !tr.DeletePoint(pts[i], ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSRNearestNeighborsExact(t *testing.T) {
	tr := srTree(t, 5, 12)
	pts := randPoints(23, 900, 5)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	rnd := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		q := make(geom.Point, 5)
		for d := range q {
			q[d] = rnd.Float64() * 1000
		}
		k := 1 + rnd.Intn(30)
		got, _ := tr.NearestNeighbors(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d rank %d: %g want %g", trial, i, got[i].DistSq, want[i])
			}
		}
	}
}

// Property: mixed insert/delete workloads keep SR invariants (including
// sphere containment of every subtree point).
func TestSRMixedWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		tr, err := New(Config{Dim: 2, MaxEntries: 8, UseSpheres: true}, nil)
		if err != nil {
			return false
		}
		type obj struct {
			p  geom.Point
			id ObjectID
		}
		var live []obj
		next := ObjectID(1)
		for step := 0; step < 250; step++ {
			if len(live) == 0 || rnd.Float64() < 0.7 {
				p := geom.Point{rnd.Float64() * 100, rnd.Float64() * 100}
				if err := tr.InsertPoint(p, next); err != nil {
					return false
				}
				live = append(live, obj{p, next})
				next++
			} else {
				i := rnd.Intn(len(live))
				if !tr.DeletePoint(live[i].p, live[i].id) {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return tr.CheckInvariants() == nil && tr.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
