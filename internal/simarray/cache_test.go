package simarray

import (
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

func TestSharedCacheReducesDiskIO(t *testing.T) {
	tree := buildTree(t, 4000, 2, 5, 41)
	// A hot working set: the same 5 query points repeated 5×.
	hot := dataset.SampleQueries(dataset.Gaussian(4000, 2, 41), 5, 42)
	workQueries := append([]geomPoint(nil), hot...)
	for i := 0; i < 4; i++ {
		workQueries = append(workQueries, hot...)
	}

	run := func(cachePages int) (float64, int) {
		opts := query.Options{}
		if cachePages > 0 {
			opts.SharedCache = bufferpool.NewSharded[rtree.PageID, struct{}](cachePages, 1, func(rtree.PageID) uint64 { return 0 })
		}
		sys, err := NewSystem(tree, Config{Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(Workload{
			Algorithm: query.CRSS{}, K: 10, Queries: workQueries,
			ArrivalRate: 10, Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		accesses := 0
		for _, o := range res.Outcomes {
			accesses += o.Stats.DiskAccesses
		}
		return res.MeanResponse, accesses
	}

	respNo, accNo := run(0)
	respYes, accYes := run(512)
	if accYes >= accNo {
		t.Errorf("shared cache did not cut disk accesses: %d vs %d", accYes, accNo)
	}
	if respYes >= respNo {
		t.Errorf("shared cache did not cut response time: %.5f vs %.5f", respYes, respNo)
	}
	// With a cache covering the whole working set, repeats should be
	// close to free: expect a large reduction.
	if float64(accYes) > 0.5*float64(accNo) {
		t.Errorf("cache hit rate too low: %d of %d accesses remain", accYes, accNo)
	}
}

type geomPoint = geom.Point

func TestSharedCacheResultsUnchanged(t *testing.T) {
	tree := buildTree(t, 2000, 2, 4, 43)
	qs := dataset.SampleQueries(dataset.Gaussian(2000, 2, 43), 10, 44)
	base, err := NewSystem(tree, Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := base.Run(Workload{Algorithm: query.CRSS{}, K: 8, Queries: qs, ArrivalRate: 5})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewSystem(tree, Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := cached.Run(Workload{
		Algorithm: query.CRSS{}, K: 8, Queries: qs, ArrivalRate: 5,
		Options: query.Options{SharedCache: bufferpool.NewSharded[rtree.PageID, struct{}](256, 1, func(rtree.PageID) uint64 { return 0 })},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.Outcomes {
		a, b := resA.Outcomes[i].Results, resB.Outcomes[i].Results
		if len(a) != len(b) {
			t.Fatalf("query %d: result count differs with cache", i)
		}
		for j := range a {
			if a[j].DistSq != b[j].DistSq {
				t.Fatalf("query %d rank %d: distance differs with cache", i, j)
			}
		}
	}
}
