package simarray

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/parallel"
	"repro/internal/query"
)

// TestKitchenSink combines every extension at once: an SR-tree bulk
// packed over mirrored disks with multiple CPUs, level caching and a mixed insert+query workload. Everything must
// complete, conserve I/O, and leave the tree structurally sound.
func TestKitchenSink(t *testing.T) {
	pts := dataset.Clustered(8000, 6, 12, 91)
	tree, err := parallel.New(parallel.Config{
		Dim:        6,
		NumDisks:   6,
		Cylinders:  disk.HPC2200A().Cylinders,
		UseSpheres: true,
		Policy:     decluster.ProximityIndex{},
		Seed:       91,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPointsPacked(pts); err != nil {
		t.Fatal(err)
	}
	if err := tree.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(tree, Config{
		Seed:    91,
		Mirrors: 2,
		CPUs:    2,
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.RunMixed(MixedWorkload{
		Queries: Workload{
			Algorithm:   query.CRSS{},
			K:           15,
			Queries:     dataset.SampleQueries(pts, 40, 92),
			ArrivalRate: 8,
			Options:     query.Options{CachedLevels: 1},
		},
		Inserts:    dataset.Clustered(300, 6, 12, 93),
		InsertBase: 1 << 20,
		InsertRate: 40,
	})
	if err != nil {
		t.Fatal(err)
	}

	// All queries answered in full.
	for _, o := range res.Outcomes {
		if len(o.Results) != 15 {
			t.Fatalf("query %d: %d results", o.Index, len(o.Results))
		}
	}
	// All inserts landed.
	if tree.Len() != 8000+300 {
		t.Fatalf("tree has %d objects", tree.Len())
	}
	if err := tree.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckPlacements(); err != nil {
		t.Fatal(err)
	}
	// Physical drive reports: 6 logical × 2 mirrors.
	if len(res.Disks) != 12 {
		t.Fatalf("%d drive reports", len(res.Disks))
	}
	// Timing sanity.
	if res.MeanResponse <= 0 || res.MeanInsertResponse <= 0 {
		t.Error("missing response times")
	}
}
