package query

import (
	"math"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

func TestAllAlgorithmsExactOnXTree(t *testing.T) {
	pts := dataset.Clustered(2500, 10, 6, 121)
	tree, err := parallel.New(parallel.Config{
		Dim: 10, NumDisks: 8, Cylinders: 1449, MaxEntries: 16,
		MaxOverlapRatio: 0.2, Policy: decluster.ProximityIndex{}, Seed: 121,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	if err := tree.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d := Driver{Tree: tree}
	for _, alg := range allAlgorithms() {
		for _, q := range dataset.SampleQueries(pts, 6, 122) {
			got, stats := d.Run(alg, q, 12, Options{})
			want := bruteforce.KNN(pts, q, 12)
			if len(got) != len(want) {
				t.Fatalf("X %s: %d results", alg.Name(), len(got))
			}
			for i := range got {
				if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
					t.Fatalf("X %s rank %d mismatch", alg.Name(), i)
				}
			}
			// Supernodes make disk accesses >= node visits.
			if stats.DiskAccesses < stats.NodesVisited {
				t.Fatalf("%s: accesses %d < visits %d", alg.Name(), stats.DiskAccesses, stats.NodesVisited)
			}
		}
	}
}

// A supernode's page count is taken at its own level's capacity: in
// the point-leaf layout a leaf holds more entries than a directory
// page, and a directory supernode counted at the leaf capacity would
// read as fewer pages than it spans.
func TestSupernodePagesAtDirectoryCapacity(t *testing.T) {
	// 1 KiB pages: 11 points or 5 rectangles, so that 3 000 points grow
	// directory supernodes of 6 to 11 entries.
	pts := dataset.Uniform(3000, 10, 121)
	tree, err := parallel.New(parallel.Config{
		Dim: 10, NumDisks: 4, Cylinders: 1449, PageSize: 1024,
		MaxOverlapRatio: 0.2, Policy: decluster.ProximityIndex{}, Seed: 121,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	leafCap, dirCap := tree.Capacity(0), tree.Capacity(1)
	if leafCap <= dirCap || tree.Config().MaxEntries != leafCap {
		t.Fatalf("capacities: leaf %d, directory %d, MaxEntries %d", leafCap, dirCap, tree.Config().MaxEntries)
	}
	b := newBase(tree, pts[0], 1, Options{})
	defer b.Release()
	undercounted := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		want := (len(n.Entries) + tree.Capacity(n.Level) - 1) / tree.Capacity(n.Level)
		if got := b.request(n.ID, n.Level).Pages; got != max(want, 1) {
			t.Errorf("level-%d page %d of %d entries: %d pages, want %d", n.Level, n.ID, len(n.Entries), got, want)
		}
		if !n.IsLeaf() && len(n.Entries) > dirCap && len(n.Entries) <= leafCap {
			undercounted++
		}
		return true
	})
	if undercounted == 0 {
		t.Fatal("no directory supernode fits a leaf's capacity: the test pins nothing")
	}
}
