package simarray

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/query"
)

// --- pickMirror ------------------------------------------------------

// newMirrorSystem builds a small system purely to poke pickMirror.
func newMirrorSystem(t *testing.T, mirrors int, faults []DriveFault) *System {
	t.Helper()
	tree := buildTree(t, 500, 2, 2, 31)
	sys, err := NewSystem(tree, Config{Seed: 1, Mirrors: mirrors, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPickMirrorNearestArm: among mirrors whose queues drain at the
// same time, the one whose arm is closest to the target cylinder wins;
// exact distance ties go to the lower index.
func TestPickMirrorNearestArm(t *testing.T) {
	sys := newMirrorSystem(t, 2, nil)

	// All arms start at cylinder 0: a tie, resolved to mirror 0.
	if m, ok := sys.pickMirror(0, 50); !ok || m != 0 {
		t.Fatalf("tie pick: (%d, %v), want (0, true)", m, ok)
	}

	// Move mirror 1's arm next to the target; it must now win.
	sys.drive[0][1].ServiceTime(120, nil)
	if m, ok := sys.pickMirror(0, 100); !ok || m != 1 {
		t.Fatalf("nearest pick: (%d, %v), want (1, true)", m, ok)
	}

	// Symmetric distances (arm 0 at 0, arm 1 at 120, target 60) tie
	// again — lower index wins.
	if m, ok := sys.pickMirror(0, 60); !ok || m != 0 {
		t.Fatalf("symmetric tie: (%d, %v), want (0, true)", m, ok)
	}
}

// TestPickMirrorShortestQueue: the less-loaded mirror wins; an exact
// free-time tie is broken by the nearer arm.
func TestPickMirrorShortestQueue(t *testing.T) {
	sys := newMirrorSystem(t, 2, nil)

	// Load mirror 0 with a pending job; mirror 1 is idle and must win.
	sys.disks[0][0].Submit(0.5, nil)
	if m, ok := sys.pickMirror(0, 100); !ok || m != 1 {
		t.Fatalf("loaded-mirror pick: (%d, %v), want (1, true)", m, ok)
	}

	// Equal queues (both idle on disk 1), arms at 0 and 200: the tie
	// goes to the arm nearer the target cylinder.
	sys.drive[1][1].ServiceTime(200, nil)
	if m, ok := sys.pickMirror(1, 190); !ok || m != 1 {
		t.Fatalf("tie near arm 1: (%d, %v), want (1, true)", m, ok)
	}
	if m, ok := sys.pickMirror(1, 10); !ok || m != 0 {
		t.Fatalf("tie near arm 0: (%d, %v), want (0, true)", m, ok)
	}
}

// TestPickMirrorSkipsDeadDrives: a read routes around a fail-stopped
// drive, and !ok reports that no live mirror remains.
func TestPickMirrorSkipsDeadDrives(t *testing.T) {
	sys := newMirrorSystem(t, 2, []DriveFault{{Disk: 0, Mirror: 0}})
	for i := 0; i < 4; i++ {
		if m, ok := sys.pickMirror(0, 100); !ok || m != 1 {
			t.Fatalf("pick %d: (%d, %v), want the live mirror 1", i, m, ok)
		}
	}
	// The untouched logical disk is unaffected by disk 0's fault: both
	// mirrors are idle with their arms at 0, so the tie goes to mirror 0.
	if m, ok := sys.pickMirror(1, 100); !ok || m != 0 {
		t.Fatalf("healthy disk: (%d, %v), want (0, true)", m, ok)
	}

	// Both mirrors dead: no pick is possible.
	sys = newMirrorSystem(t, 2, []DriveFault{{Disk: 0, Mirror: 0}, {Disk: 0, Mirror: 1}})
	if _, ok := sys.pickMirror(0, 100); ok {
		t.Fatal("picked a mirror on a fully dead disk")
	}
}

// TestPickMirrorRAID0Dead: with one copy per disk, a dead drive means
// the read cannot be served at all.
func TestPickMirrorRAID0Dead(t *testing.T) {
	sys := newMirrorSystem(t, 1, []DriveFault{{Disk: 1, Mirror: 0}})
	if m, ok := sys.pickMirror(0, 50); !ok || m != 0 {
		t.Fatalf("healthy RAID-0 disk: (%d, %v), want (0, true)", m, ok)
	}
	if _, ok := sys.pickMirror(1, 50); ok {
		t.Fatal("picked a mirror on a dead RAID-0 disk")
	}
}

// --- fail-stop end-to-end -------------------------------------------

// TestSimMirroredFailStopMatchesDriver: one dead physical drive behind
// RAID-1 must not change a single answer — the simulator serves every
// read from the surviving mirror.
func TestSimMirroredFailStopMatchesDriver(t *testing.T) {
	tree := buildTree(t, 3000, 2, 4, 7)
	qs := dataset.SampleQueries(dataset.Gaussian(3000, 2, 7), 20, 9)
	drv := query.Driver{Tree: tree}

	for _, f := range []DriveFault{
		{Disk: 1, Mirror: 0, AfterIOs: 0}, // dead on arrival
		{Disk: 2, Mirror: 1, AfterIOs: 5}, // dies mid-run
	} {
		sys, err := NewSystem(tree, Config{Seed: 7, Mirrors: 2, Faults: []DriveFault{f}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(Workload{Algorithm: query.CRSS{}, K: 10, Queries: qs, ArrivalRate: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("fault %+v: %d queries failed with a live mirror", f, res.Failed)
		}
		for i, q := range qs {
			want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
			o := res.Outcomes[i]
			if o.Err != nil {
				t.Fatalf("fault %+v: query %d: %v", f, i, o.Err)
			}
			if len(o.Results) != len(want) {
				t.Fatalf("fault %+v: query %d: %d results, want %d", f, i, len(o.Results), len(want))
			}
			for j := range want {
				if o.Results[j].Object != want[j].Object || o.Results[j].DistSq != want[j].DistSq {
					t.Fatalf("fault %+v: query %d result %d diverged", f, i, j)
				}
			}
		}
	}
}

// TestSimRAID0DeadDiskFailsTyped: a dead disk without mirrors fails its
// queries with *fault.ErrDataUnavailable — never a wrong or partial
// answer — and the rest of the workload still completes and matches
// the Driver.
func TestSimRAID0DeadDiskFailsTyped(t *testing.T) {
	tree := buildTree(t, 3000, 2, 8, 7)
	qs := dataset.SampleQueries(dataset.Gaussian(3000, 2, 7), 30, 11)
	drv := query.Driver{Tree: tree}

	rootPl, ok := tree.Placement(tree.Tree.Root())
	if !ok {
		t.Fatal("root has no placement")
	}
	dead := (rootPl.Disk + 1) % 8

	for _, arrival := range []float64{0, 50} { // single-user chain and Poisson stream
		t.Run(fmt.Sprintf("rate=%v", arrival), func(t *testing.T) {
			sys, err := NewSystem(tree, Config{Seed: 7, Faults: []DriveFault{{Disk: dead, Mirror: 0}}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(Workload{Algorithm: query.CRSS{}, K: 3, Queries: qs, ArrivalRate: arrival})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 {
				t.Fatal("no query failed with a dead RAID-0 disk")
			}
			if res.Failed == len(qs) {
				t.Fatal("every query failed; dead-disk split is vacuous")
			}
			for i, q := range qs {
				o := res.Outcomes[i]
				if o.Err != nil {
					var dataErr *fault.ErrDataUnavailable
					if !errors.As(o.Err, &dataErr) {
						t.Fatalf("query %d: err = %v, want *fault.ErrDataUnavailable", i, o.Err)
					}
					if dataErr.Disk != dead {
						t.Fatalf("query %d: error names disk %d, dead disk is %d", i, dataErr.Disk, dead)
					}
					if o.Results != nil || o.Stats != nil {
						t.Fatalf("query %d carries partial results alongside its error", i)
					}
					continue
				}
				want, _ := drv.Run(query.CRSS{}, q, 3, query.Options{})
				if len(o.Results) != len(want) {
					t.Fatalf("query %d: %d results, want %d", i, len(o.Results), len(want))
				}
				for j := range want {
					if o.Results[j].Object != want[j].Object || o.Results[j].DistSq != want[j].DistSq {
						t.Fatalf("query %d result %d diverged", i, j)
					}
				}
			}
		})
	}
}

// TestSimFaultValidation: faults must target drives inside the array.
func TestSimFaultValidation(t *testing.T) {
	tree := buildTree(t, 500, 2, 2, 31)
	for _, f := range []DriveFault{
		{Disk: 2, Mirror: 0},
		{Disk: -1, Mirror: 0},
		{Disk: 0, Mirror: 1}, // Mirrors defaults to 1
	} {
		if _, err := NewSystem(tree, Config{Seed: 1, Faults: []DriveFault{f}}); err == nil {
			t.Errorf("accepted out-of-array fault %+v", f)
		}
	}
}
