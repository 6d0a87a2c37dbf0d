package simarray_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/decluster"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/simarray"
)

// TestSimulatorDeliversInRequestOrder is the regression for the Fetcher
// contract in the simulator: a stage's pages reach the execution at
// their requests' positions, not in the order the disks finish them. On
// an integer lattice most answers end in a tie at the k-th distance,
// which the executions break by delivery order — so arrival-order
// delivery returns other objects than the immediate driver (and the
// engine) do.
func TestSimulatorDeliversInRequestOrder(t *testing.T) {
	const side, k = 40, 6
	pts := make([]geom.Point, 0, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geom.Point{float64(x), float64(y)})
		}
	}
	tree, err := parallel.New(parallel.Config{
		Dim: 2, NumDisks: 5, Cylinders: 1449, MaxEntries: 8,
		Policy: decluster.ProximityIndex{}, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	var queries []geom.Point
	for i := 0; i < 17; i++ {
		queries = append(queries, geom.Point{float64(3 + 2*i), float64((7 * i) % side)})
	}
	eng, err := exec.New(tree, exec.Config{CachePages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	d := query.Driver{Tree: tree}
	for _, alg := range []query.Algorithm{query.CRSS{}, query.FPSS{}} {
		sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(simarray.Workload{Algorithm: alg, K: k, Queries: queries})
		if err != nil {
			t.Fatal(err)
		}
		differ := 0
		for qi, q := range queries {
			want, _ := d.Run(alg, q, k, query.Options{})
			got := res.Outcomes[qi].Results
			fromEngine, _, err := eng.KNN(context.Background(), alg, q, k, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				differ++
				t.Logf("%s q%d %v: simulator %v, driver %v", alg.Name(), qi, q, objects(got), objects(want))
			}
			if !reflect.DeepEqual(fromEngine, want) {
				t.Errorf("%s q%d: engine %v, driver %v", alg.Name(), qi, objects(fromEngine), objects(want))
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of %d simulated queries answer with other objects than the driver", alg.Name(), differ, len(queries))
		}
	}
}

func objects(ns []query.Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n.Object)
	}
	return out
}
