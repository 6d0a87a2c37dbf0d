package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func packedTree(t *testing.T, cfg Config, pts []geom.Point) *Tree {
	t.Helper()
	tr, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadSTR(pts); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 5000} {
		pts := randPoints(91, n, 2)
		tr := packedTree(t, Config{Dim: 2, MaxEntries: 8}, pts)
		if tr.Len() != n {
			t.Fatalf("n=%d: len %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadQueriesExact(t *testing.T) {
	pts := randPoints(92, 3000, 3)
	tr := packedTree(t, Config{Dim: 3, MaxEntries: 12}, pts)
	rnd := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		q := geom.Point{rnd.Float64() * 1000, rnd.Float64() * 1000, rnd.Float64() * 1000}
		k := 1 + rnd.Intn(40)
		got, _ := tr.NearestNeighbors(q, k)
		want := bruteKNN(pts, q, k)
		for i := range got {
			if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d rank %d: %g want %g", trial, i, got[i].DistSq, want[i])
			}
		}
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	_ = tr.InsertPoint(geom.Point{1, 1}, 1)
	if err := tr.BulkLoadSTR([]geom.Point{{2, 2}}); err == nil {
		t.Error("bulk load accepted non-empty tree")
	}
}

func TestBulkLoadRejectsWrongDim(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	if err := tr.BulkLoadSTR([]geom.Point{{1, 2, 3}}); err == nil {
		t.Error("bulk load accepted wrong-dim item")
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	pts := randPoints(94, 8000, 2)
	incr := mustTree(t, Config{Dim: 2, MaxEntries: 16})
	for i, p := range pts {
		_ = incr.InsertPoint(p, ObjectID(i))
	}
	packed := packedTree(t, Config{Dim: 2, MaxEntries: 16}, pts)
	si, sp := incr.ComputeStats(), packed.ComputeStats()
	if sp.Nodes >= si.Nodes {
		t.Errorf("packed tree has %d nodes, incremental %d", sp.Nodes, si.Nodes)
	}
	if sp.AvgLeafFill < 0.9 {
		t.Errorf("packed leaf fill %.2f, want ≥ 0.9", sp.AvgLeafFill)
	}
	// Packed trees must answer range queries with fewer node accesses
	// on average.
	var accI, accP int
	rnd := rand.New(rand.NewSource(95))
	for trial := 0; trial < 20; trial++ {
		x, y := rnd.Float64()*900, rnd.Float64()*900
		q := geom.NewRect(geom.Point{x, y}, geom.Point{x + 60, y + 60})
		mi, ni := incr.SearchRect(q, nil)
		mp, np := packed.SearchRect(q, nil)
		if len(mi) != len(mp) {
			t.Fatalf("result mismatch: %d vs %d", len(mi), len(mp))
		}
		accI += ni
		accP += np
	}
	if accP >= accI {
		t.Errorf("packed accesses %d not below incremental %d", accP, accI)
	}
}

func TestBulkLoadSRTree(t *testing.T) {
	pts := randPoints(96, 2000, 4)
	tr := packedTree(t, Config{Dim: 4, MaxEntries: 10, UseSpheres: true}, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	pts := randPoints(97, 1200, 2)
	tr := packedTree(t, Config{Dim: 2, MaxEntries: 8}, pts)
	// Packed trees must accept subsequent inserts and deletes.
	extra := randPoints(98, 300, 2)
	for i, p := range extra {
		if err := tr.InsertPoint(p, ObjectID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		if !tr.DeletePoint(pts[i], ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1200+300-600 {
		t.Errorf("len = %d", tr.Len())
	}
}

// Property: bulk load over arbitrary point multisets preserves the
// exact content (search returns every object once).
func TestBulkLoadContentProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 2000
		pts := randPoints(seed, n, 2)
		tr, err := New(Config{Dim: 2, MaxEntries: 8}, nil)
		if err != nil {
			return false
		}
		if err := tr.BulkLoadSTR(pts); err != nil {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		all, _ := tr.SearchRect(geom.NewRect(geom.Point{-1, -1}, geom.Point{1001, 1001}), nil)
		if len(all) != n {
			return false
		}
		ids := make([]int, len(all))
		for i, m := range all {
			ids[i] = int(m.Object)
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
