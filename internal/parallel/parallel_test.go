package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func testConfig(disks int, policy decluster.Policy) Config {
	return Config{
		Dim:        2,
		NumDisks:   disks,
		Cylinders:  1449,
		MaxEntries: 16,
		Policy:     policy,
		Seed:       1,
	}
}

func randPoints(seed int64, n, dim int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = rnd.Float64() * 1000
		}
		pts[i] = p
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 2, NumDisks: 0, Cylinders: 10}); err == nil {
		t.Error("accepted zero disks")
	}
	if _, err := New(Config{Dim: 2, NumDisks: 2, Cylinders: 0}); err == nil {
		t.Error("accepted zero cylinders")
	}
}

func TestDefaultsApplied(t *testing.T) {
	pt, err := New(Config{Dim: 10, NumDisks: 4, Cylinders: 100})
	if err != nil {
		t.Fatal(err)
	}
	// MaxEntries is the leaf capacity, of points: (4096-16)/(80+8); the
	// directory's is that of rectangles: (4096-16)/(160+12).
	if got := pt.Config().MaxEntries; got != 46 {
		t.Errorf("derived leaf capacity = %d, want 46", got)
	}
	if leaf, dir := pt.Capacity(0), pt.Capacity(1); leaf != 46 || dir != 23 {
		t.Errorf("tree capacities: leaf %d, directory %d, want 46 and 23", leaf, dir)
	}
	// An SR tree's leaves hold sphere entries like its directory:
	// (4096-16)/(160+12+80+8) everywhere.
	sr, err := New(Config{Dim: 10, NumDisks: 4, Cylinders: 100, UseSpheres: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Config().MaxEntries; got != 15 || sr.Capacity(0) != 15 || sr.Capacity(1) != 15 {
		t.Errorf("SR tree: MaxEntries %d, capacities %d and %d, want 15 everywhere",
			got, sr.Capacity(0), sr.Capacity(1))
	}
	// An explicit MaxEntries sets both capacities.
	fixed, err := New(Config{Dim: 10, NumDisks: 4, Cylinders: 100, MaxEntries: 12})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Capacity(0) != 12 || fixed.Capacity(1) != 12 {
		t.Errorf("MaxEntries 12: capacities %d and %d", fixed.Capacity(0), fixed.Capacity(1))
	}
	if pt.Config().Policy == nil {
		t.Error("no default policy")
	}
	// A page too small for the tree's minimum fanout still gets 4.
	tiny, err := New(Config{Dim: 10, NumDisks: 4, Cylinders: 100, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.Config().MaxEntries; got != 4 {
		t.Errorf("tiny page capacity = %d, want 4", got)
	}
}

func TestEveryPagePlacedAndValid(t *testing.T) {
	for _, pol := range decluster.All(7) {
		pt, err := New(testConfig(5, pol))
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.BuildPoints(randPoints(10, 2000, 2)); err != nil {
			t.Fatal(err)
		}
		if err := pt.Tree.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
		if err := pt.CheckPlacements(); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
		dist := pt.Distribution()
		if dist.Total != pt.Store().Len() {
			t.Errorf("%s: distribution total %d != store %d", pol.Name(), dist.Total, pt.Store().Len())
		}
	}
}

func TestPlacementsSurviveDeletes(t *testing.T) {
	pt, err := New(testConfig(4, decluster.ProximityIndex{}))
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(11, 1200, 2)
	if err := pt.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		if !pt.DeletePoint(pts[i], rtree.ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := pt.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := pt.CheckPlacements(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	build := func() map[rtree.PageID]Placement {
		pt, err := New(testConfig(6, decluster.ProximityIndex{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.BuildPoints(randPoints(12, 1500, 2)); err != nil {
			t.Fatal(err)
		}
		out := map[rtree.PageID]Placement{}
		pt.Walk(func(n *rtree.Node, _ int) bool {
			pl, _ := pt.Placement(n.ID)
			out[n.ID] = pl
			return true
		})
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("different page counts")
	}
	for id, pl := range a {
		if b[id] != pl {
			t.Fatalf("page %d placement differs: %v vs %v", id, pl, b[id])
		}
	}
}

func TestBalancedPoliciesSpreadPages(t *testing.T) {
	// Round-robin must be nearly perfectly balanced; PI should not be
	// wildly imbalanced either on uniform data.
	for _, tc := range []struct {
		policy decluster.Policy
		limit  float64
	}{
		{&decluster.RoundRobin{}, 1.15},
		{decluster.ProximityIndex{}, 1.8},
		{decluster.DataBalance{}, 1.15},
	} {
		pt, err := New(testConfig(8, tc.policy))
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.BuildPoints(randPoints(13, 4000, 2)); err != nil {
			t.Fatal(err)
		}
		d := pt.Distribution()
		if d.Imbalance > tc.limit {
			t.Errorf("%s: imbalance %.2f exceeds %.2f (pages %v)",
				tc.policy.Name(), d.Imbalance, tc.limit, d.Pages)
		}
	}
}

func TestProximityBeatsRandomOnSiblingSeparation(t *testing.T) {
	// Measure the fraction of parent nodes whose children land on
	// distinct disks ("sibling spread"). PI should separate siblings at
	// least as well as random placement — that is its entire purpose.
	spread := func(policy decluster.Policy) float64 {
		pt, err := New(Config{
			Dim: 2, NumDisks: 10, Cylinders: 1449, MaxEntries: 10,
			Policy: policy, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.BuildPoints(randPoints(14, 3000, 2)); err != nil {
			t.Fatal(err)
		}
		var good, total float64
		pt.Walk(func(n *rtree.Node, _ int) bool {
			if n.IsLeaf() {
				return true
			}
			disks := map[int]bool{}
			for _, e := range n.Entries {
				pl, _ := pt.Placement(e.Child)
				disks[pl.Disk] = true
			}
			total++
			good += float64(len(disks)) / float64(len(n.Entries))
			return true
		})
		return good / total
	}
	pi := spread(decluster.ProximityIndex{})
	rnd := spread(decluster.NewRandom(5))
	if pi < rnd-0.02 {
		t.Errorf("PI sibling spread %.3f worse than random %.3f", pi, rnd)
	}
}

func TestCylindersInRange(t *testing.T) {
	pt, err := New(testConfig(3, &decluster.RoundRobin{}))
	if err != nil {
		t.Fatal(err)
	}
	_ = pt.BuildPoints(randPoints(15, 1000, 2))
	pt.Walk(func(n *rtree.Node, _ int) bool {
		pl, ok := pt.Placement(n.ID)
		if !ok {
			t.Errorf("page %d unplaced", n.ID)
			return false
		}
		if pl.Cylinder < 0 || pl.Cylinder >= 1449 {
			t.Errorf("page %d cylinder %d", n.ID, pl.Cylinder)
		}
		return true
	})
}
