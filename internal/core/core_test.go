package core

import (
	"math"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
)

func newTestIndex(t *testing.T, dim, disks int) *Index {
	t.Helper()
	ix, err := NewIndex(IndexConfig{Dim: dim, NumDisks: disks, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(IndexConfig{Dim: 0, NumDisks: 4}); err == nil {
		t.Error("accepted dim 0")
	}
	if _, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 0}); err == nil {
		t.Error("accepted 0 disks")
	}
	if _, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 2, Policy: "bogus"}); err == nil {
		t.Error("accepted bogus policy")
	}
}

func TestInsertQueryDelete(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	pts := dataset.Uniform(1000, 2, 5)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1000 {
		t.Fatalf("len = %d", ix.Len())
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}

	q := Point{0.5, 0.5}
	for _, name := range Algorithms() {
		res, stats, err := ix.KNN(q, 7, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) != 7 {
			t.Fatalf("%s: %d results", name, len(res))
		}
		want := bruteforce.KNN(pts, q, 7)
		for i := range res {
			if math.Abs(res[i].DistSq-want[i].DistSq) > 1e-9 {
				t.Fatalf("%s: rank %d mismatch", name, i)
			}
		}
		if stats.NodesVisited <= 0 {
			t.Errorf("%s: no stats", name)
		}
	}

	if !ix.Delete(pts[0], 0) {
		t.Error("delete failed")
	}
	if ix.Delete(pts[0], 0) {
		t.Error("double delete succeeded")
	}
	if ix.Len() != 999 {
		t.Errorf("len after delete = %d", ix.Len())
	}
}

func TestKNNValidation(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	_ = ix.InsertAll(dataset.Uniform(100, 2, 5), 0)
	if _, _, err := ix.KNN(Point{1, 2, 3}, 5, ""); err == nil {
		t.Error("accepted wrong-dimension query")
	}
	if _, _, err := ix.KNN(Point{1, 2}, 5, "nope"); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestRangeSearch(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	pts := dataset.Uniform(2000, 2, 7)
	_ = ix.InsertAll(pts, 0)
	q := Point{0.4, 0.6}
	eps := 0.1
	got, nodes, err := ix.RangeSearch(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if nodes <= 0 {
		t.Error("no nodes accessed")
	}
	want := bruteforce.Range(pts, q, eps)
	if len(got) != len(want) {
		t.Fatalf("range: got %d, want %d", len(got), len(want))
	}
	if _, _, err := ix.RangeSearch(Point{1}, 0.1); err == nil {
		t.Error("accepted wrong-dimension range query")
	}
}

func TestSimulate(t *testing.T) {
	ix := newTestIndex(t, 2, 5)
	pts := dataset.Gaussian(3000, 2, 9)
	_ = ix.InsertAll(pts, 0)
	qs := dataset.SampleQueries(pts, 20, 10)
	res, err := ix.Simulate(SimulatedWorkload{
		Algorithm:   "crss",
		K:           10,
		Queries:     qs,
		ArrivalRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 20 || res.MeanResponse <= 0 {
		t.Fatalf("simulate: %d outcomes, mean %.4f", len(res.Outcomes), res.MeanResponse)
	}
	if _, err := ix.Simulate(SimulatedWorkload{Algorithm: "nope", K: 1, Queries: qs}); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestDistribution(t *testing.T) {
	ix := newTestIndex(t, 2, 6)
	_ = ix.InsertAll(dataset.Uniform(2000, 2, 11), 0)
	d := ix.Distribution()
	if d.Total != ix.Tree().Store().Len() {
		t.Errorf("distribution total %d != store %d", d.Total, ix.Tree().Store().Len())
	}
	if len(d.Pages) != 6 {
		t.Errorf("%d disks in distribution", len(d.Pages))
	}
}

func TestAlgorithmByName(t *testing.T) {
	for _, n := range Algorithms() {
		if _, err := AlgorithmByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if alg, err := AlgorithmByName(""); err != nil || alg.Name() != "CRSS" {
		t.Error("default algorithm is not CRSS")
	}
}

// A non-finite coordinate, or a finite one outside the tree's bound, is
// an error of the caller's, returned through every layer, not a panic
// three levels down (or a poisoned tree).
func TestInsertRejectsNonFinitePoint(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	if err := ix.InsertAll(dataset.Uniform(400, 2, 5), 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.Inf(-1), 0.5}, {0.5, 1e200}} {
		if err := ix.Insert(p, 4000); err == nil {
			t.Errorf("Insert accepted %v", p)
		}
		if err := ix.Tree().InsertPoint(p, 4000); err == nil {
			t.Errorf("parallel.Tree.InsertPoint accepted %v", p)
		}
	}
	if ix.Len() != 400 {
		t.Errorf("len = %d after rejected inserts, want 400", ix.Len())
	}
	if err := ix.Check(); err != nil {
		t.Error(err)
	}
}
