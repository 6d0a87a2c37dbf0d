package query

import (
	"math"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// buildSR constructs an SR-tree variant over pts.
func buildSR(t testing.TB, pts []geom.Point, dim, disks int) *parallel.Tree {
	t.Helper()
	pt, err := parallel.New(parallel.Config{
		Dim:        dim,
		NumDisks:   disks,
		Cylinders:  1449,
		UseSpheres: true,
		Policy:     decluster.ProximityIndex{},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestAllAlgorithmsExactOnSRTree(t *testing.T) {
	pts := dataset.Clustered(2500, 8, 10, 33)
	tree := buildSR(t, pts, 8, 10)
	if err := tree.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d := Driver{Tree: tree}
	for _, alg := range allAlgorithms() {
		for _, q := range dataset.SampleQueries(pts, 8, 34) {
			for _, k := range []int{1, 10, 40} {
				got, _ := d.Run(alg, q, k, Options{})
				want := bruteforce.KNN(pts, q, k)
				if len(got) != len(want) {
					t.Fatalf("SR %s k=%d: %d results, want %d", alg.Name(), k, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
						t.Fatalf("SR %s k=%d rank %d: %g want %g",
							alg.Name(), k, i, got[i].DistSq, want[i].DistSq)
					}
				}
			}
		}
	}
}

func TestSRPrunesBetterPerPageInHighDim(t *testing.T) {
	// Per page, SR entries (intersected sphere+rect bounds) must not
	// activate more candidates than rect-only entries on the same data;
	// across the whole query the SR fanout is smaller, so we compare
	// the fraction of pages visited rather than absolute counts.
	pts := dataset.Gaussian(4000, 10, 35)
	rTree := buildTree(t, pts, 10, 10, 0)
	sTree := buildSR(t, pts, 10, 10)

	fracVisited := func(tree *parallel.Tree) float64 {
		total := float64(tree.Store().Len())
		d := Driver{Tree: tree}
		var sum float64
		for _, q := range dataset.SampleQueries(pts, 15, 36) {
			_, s := d.Run(CRSS{}, q, 10, Options{})
			sum += float64(s.NodesVisited) / total
		}
		return sum / 15
	}
	rf, sf := fracVisited(rTree), fracVisited(sTree)
	if sf > rf*1.3 {
		t.Errorf("SR visited fraction %.3f much worse than R* %.3f", sf, rf)
	}
	t.Logf("visited fraction: R* %.3f, SR %.3f", rf, sf)
}

func TestSRWOPTSSStillFloors(t *testing.T) {
	pts := dataset.Gaussian(2000, 6, 37)
	tree := buildSR(t, pts, 6, 8)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 6, 38) {
		_, w := d.Run(WOPTSS{}, q, 10, Options{})
		for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}} {
			_, s := d.Run(alg, q, 10, Options{})
			if s.NodesVisited < w.NodesVisited {
				t.Errorf("%s visited %d < WOPTSS %d on SR-tree",
					alg.Name(), s.NodesVisited, w.NodesVisited)
			}
		}
	}
}
