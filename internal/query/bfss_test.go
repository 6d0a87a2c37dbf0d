package query

import (
	"math"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestBFSSExact(t *testing.T) {
	pts := dataset.CaliforniaLike(4000, 81)
	tree := buildTree(t, pts, 2, 8, 16)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 10, 82) {
		for _, k := range []int{1, 10, 100} {
			got, _ := d.Run(BFSS{}, q, k, Options{})
			want := bruteforce.KNN(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
					t.Fatalf("k=%d rank %d mismatch", k, i)
				}
			}
		}
	}
}

func TestBFSSIsAccessOptimal(t *testing.T) {
	// Best-first must visit at most one page more than WOPTSS per
	// boundary tie; on continuous random data they coincide.
	pts := dataset.Gaussian(5000, 3, 83)
	tree := buildTree(t, pts, 3, 10, 20)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 12, 84) {
		_, w := d.Run(WOPTSS{}, q, 10, Options{})
		_, b := d.Run(BFSS{}, q, 10, Options{})
		if b.NodesVisited > w.NodesVisited+1 {
			t.Errorf("BFSS visited %d, WOPTSS %d", b.NodesVisited, w.NodesVisited)
		}
		if b.NodesVisited < w.NodesVisited {
			t.Errorf("BFSS beat the weak-optimal floor: %d < %d", b.NodesVisited, w.NodesVisited)
		}
	}
}

func TestBFSSSequential(t *testing.T) {
	pts := dataset.Uniform(2000, 2, 85)
	tree := buildTree(t, pts, 2, 6, 16)
	d := Driver{Tree: tree}
	_, s := d.Run(BFSS{}, geom.Point{0.3, 0.3}, 20, Options{})
	if s.MaxParallel != 1 {
		t.Errorf("BFSS batch size %d, want 1 (sequential)", s.MaxParallel)
	}
}

func TestBFSSOnSRTree(t *testing.T) {
	pts := dataset.Clustered(1500, 8, 6, 87)
	tree := buildSR(t, pts, 8, 6)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 5, 88) {
		got, _ := d.Run(BFSS{}, q, 12, Options{})
		want := bruteforce.KNN(pts, q, 12)
		for i := range got {
			if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
				t.Fatal("SR BFSS mismatch")
			}
		}
	}
}

func TestBFSSKLargerThanData(t *testing.T) {
	pts := dataset.Uniform(30, 2, 89)
	tree := buildTree(t, pts, 2, 3, 8)
	d := Driver{Tree: tree}
	got, _ := d.Run(BFSS{}, geom.Point{0.5, 0.5}, 100, Options{})
	if len(got) != 30 {
		t.Errorf("got %d, want all 30", len(got))
	}
}
