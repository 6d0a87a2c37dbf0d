package simarray

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

func TestMirrorValidation(t *testing.T) {
	tree := buildTree(t, 500, 2, 2, 31)
	if _, err := NewSystem(tree, Config{Seed: 1, Mirrors: -1}); err == nil {
		t.Error("accepted negative mirrors")
	}
}

func TestRAID1ImprovesHeavyLoad(t *testing.T) {
	// Shadowed disks serve reads from either mirror: under a heavy read
	// workload the mean response time must improve over RAID-0 with the
	// same logical layout.
	tree := buildTree(t, 6000, 2, 5, 33)
	qs := dataset.SampleQueries(dataset.Gaussian(6000, 2, 33), 60, 34)
	respWith := func(mirrors int) float64 {
		sys, err := NewSystem(tree, Config{Seed: 33, Mirrors: mirrors})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(Workload{Algorithm: query.CRSS{}, K: 20, Queries: qs, ArrivalRate: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanResponse
	}
	raid0 := respWith(1)
	raid1 := respWith(2)
	if raid1 >= raid0 {
		t.Errorf("RAID-1 %.4f not faster than RAID-0 %.4f under heavy load", raid1, raid0)
	}
}

func TestRAID1ReportsAllPhysicalDrives(t *testing.T) {
	tree := buildTree(t, 1500, 2, 4, 35)
	sys, err := NewSystem(tree, Config{Seed: 35, Mirrors: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.SampleQueries(dataset.Gaussian(1500, 2, 35), 15, 36)
	res, err := sys.Run(Workload{Algorithm: query.CRSS{}, K: 5, Queries: qs, ArrivalRate: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Disks) != 4*3 {
		t.Fatalf("%d drive reports, want 12", len(res.Disks))
	}
	// Conservation still holds across mirrors.
	var served uint64
	for _, d := range res.Disks {
		served += d.Requests
	}
	var issued uint64
	for _, o := range res.Outcomes {
		issued += uint64(o.Stats.DiskAccesses)
	}
	if served != issued {
		t.Errorf("mirrored drives served %d, queries issued %d", served, issued)
	}
}

// TestMirrorPoliciesAllComplete: a workload completes over two and
// three mirrors of every disk, the second and third copies taking reads.
func TestMirrorPoliciesAllComplete(t *testing.T) {
	tree := buildTree(t, 2000, 2, 3, 37)
	qs := dataset.SampleQueries(dataset.Gaussian(2000, 2, 37), 20, 38)
	for _, mirrors := range []int{2, 3} {
		sys, err := NewSystem(tree, Config{Seed: 37, Mirrors: mirrors})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(Workload{Algorithm: query.FPSS{}, K: 10, Queries: qs, ArrivalRate: 15})
		if err != nil {
			t.Fatalf("%d mirrors: %v", mirrors, err)
		}
		if res.MeanResponse <= 0 {
			t.Errorf("%d mirrors: non-positive response", mirrors)
		}
		for i, d := range res.Disks {
			if i%mirrors != 0 && d.Requests == 0 {
				t.Errorf("%d mirrors: drive %d served no read", mirrors, i)
			}
		}
	}
}
