package query_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/simarray"
)

// The pooled-scratch isolation tests live outside package query because
// they drive all three environments, and exec and simarray import query.
// Run them with -race -count=10.

type answer struct {
	res   []query.Neighbor
	stats query.Stats
}

func poolTestTree(t *testing.T) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.CaliforniaLike(4000, 611)
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
	return tree, dataset.SampleQueries(pts, 24, 612)
}

// TestPooledScratchIsolation: two executions alive at once never share a
// scratch. The expected answers are computed one query at a time, before
// any two executions coexist; then 8 goroutines run mixed algorithms and
// mixed k through Driver.Run and Engine.KNN, every one drawing from and
// returning to the same pools, and every answer — objects, distances and
// all Stats — must be the sequential one.
func TestPooledScratchIsolation(t *testing.T) {
	tree, queries := poolTestTree(t)
	algs := []query.Algorithm{query.BBSS{}, query.FPSS{}, query.CRSS{}, query.WOPTSS{},
		query.BFSS{}, query.EpsilonSeries{}, query.RangeBFS{Eps: 0.02}}
	ks := []int{1, 10, 60}
	d := query.Driver{Tree: tree}

	want := make(map[[3]int]answer)
	for ai, alg := range algs {
		for qi, q := range queries {
			for _, k := range ks {
				res, st := d.Run(alg, q, k, query.Options{})
				want[[3]int{ai, qi, k}] = answer{res, *st}
			}
		}
	}

	eng, err := exec.New(tree, exec.Config{CachePages: 64}) // smaller than the tree: hits and misses
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for qi, q := range queries {
					ai := (g + qi + round) % len(algs)
					k := ks[(g+2*qi)%len(ks)]
					var res []query.Neighbor
					var st *query.Stats
					if (g+qi)%2 == 0 {
						res, st = d.Run(algs[ai], q, k, query.Options{})
					} else {
						var err error
						res, st, err = eng.KNN(context.Background(), algs[ai], q, k, query.Options{})
						if err != nil {
							t.Errorf("engine %s: %v", algs[ai].Name(), err)
							continue
						}
					}
					w := want[[3]int{ai, qi, k}]
					if !reflect.DeepEqual(res, w.res) {
						t.Errorf("goroutine %d %s q%d k=%d: results differ from the sequential run", g, algs[ai].Name(), qi, k)
					}
					if !reflect.DeepEqual(*st, w.stats) {
						t.Errorf("goroutine %d %s q%d k=%d: stats %+v, sequential %+v", g, algs[ai].Name(), qi, k, *st, w.stats)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSimulatorMultiUserMatchesDriver: under a Poisson stream the
// simulator keeps many executions, each with its own scratch, alive at
// once, interleaving their stages; every query must still answer exactly
// as it does alone on the driver.
func TestSimulatorMultiUserMatchesDriver(t *testing.T) {
	tree, queries := poolTestTree(t)
	d := query.Driver{Tree: tree}
	const k = 10
	for _, alg := range []query.Algorithm{query.BBSS{}, query.FPSS{}, query.CRSS{}, query.WOPTSS{}} {
		sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(simarray.Workload{Algorithm: alg, K: k, Queries: queries, ArrivalRate: 400})
		if err != nil {
			t.Fatal(err)
		}
		overlapped := 0
		for i, o := range res.Outcomes {
			if i > 0 && o.Arrival < res.Outcomes[i-1].Completion {
				overlapped++
			}
			wantRes, wantStats := d.Run(alg, queries[o.Index], k, query.Options{})
			if !reflect.DeepEqual(o.Results, wantRes) {
				t.Errorf("%s q%d: simulated results differ from the driver's", alg.Name(), o.Index)
			}
			if !reflect.DeepEqual(o.Stats, wantStats) {
				t.Errorf("%s q%d: simulated stats %+v, driver %+v", alg.Name(), o.Index, o.Stats, wantStats)
			}
		}
		if overlapped < len(queries)/2 {
			t.Errorf("%s: only %d of %d queries overlapped their predecessor — not a multi-user run", alg.Name(), overlapped, len(queries))
		}
	}
}
