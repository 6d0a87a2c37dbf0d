package query

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// warmAllocs is the allocation count of one warm Driver.Run: the pools
// are primed with the same query first, so what is counted is what the
// query does not get from its scratch.
func warmAllocs(d Driver, alg Algorithm, q geom.Point, k int, opts Options) float64 {
	for i := 0; i < 3; i++ {
		d.Run(alg, q, k, opts)
	}
	return testing.AllocsPerRun(200, func() { d.Run(alg, q, k, opts) })
}

// TestWarmRunAllocBudget pins what a warm query allocates to what it
// hands its caller — the execution (whose Stats the caller keeps), the
// per-disk counters and the results built from the pooled best list —
// whatever the size of the tree and however many stages the query runs.
// WOPTSS is measured apart from its oracle, which is not part of the
// stage loop (it searches the tree with rtree's own sequential k-NN).
func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const k, budget = 10, 3
	for _, n := range []int{1500, 12000} {
		pts := dataset.CaliforniaLike(n, 501)
		tree := buildTree(t, pts, 2, 5, 8) // small fanout: many stages, deep stacks
		d := Driver{Tree: tree}
		q := dataset.SampleQueries(pts, 1, 502)[0]
		for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}} {
			if got := warmAllocs(d, alg, q, k, Options{}); got > budget {
				t.Errorf("n=%d %s: %.1f allocations per warm query, budget %d", n, alg.Name(), got, budget)
			}
		}
		oracle := testing.AllocsPerRun(200, func() { tree.NearestNeighbors(q, k) })
		if got := warmAllocs(d, WOPTSS{}, q, k, Options{}); got-oracle > budget {
			t.Errorf("n=%d WOPTSS: %.1f allocations per warm query beside the oracle's %.1f, budget %d",
				n, got, oracle, budget)
		}
	}
}

// TestNilTraceAllocatesNothing holds Options.Trace to its comment: the
// CRSS trace sites, which format stack sizes and thresholds, add no
// allocation to an untraced query — it allocates exactly what FPSS, which
// has no trace site, does — while a traced one pays at least one string
// per line.
func TestNilTraceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	pts := dataset.CaliforniaLike(3000, 131)
	tree := buildTree(t, pts, 2, 5, 8)
	d := Driver{Tree: tree}
	q := dataset.SampleQueries(pts, 1, 132)[0]

	untraced := warmAllocs(d, CRSS{}, q, 4, Options{})
	if floor := warmAllocs(d, FPSS{}, q, 4, Options{}); untraced != floor {
		t.Errorf("untraced CRSS allocates %.1f per query, FPSS %.1f", untraced, floor)
	}
	lines := 0
	traced := warmAllocs(d, CRSS{}, q, 4, Options{Trace: func(string) { lines++ }})
	lines /= 203 // warmAllocs runs the query 3 + 200 times
	if lines == 0 || traced < untraced+float64(lines) {
		t.Errorf("traced CRSS: %.1f allocations for %d lines, untraced %.1f", traced, lines, untraced)
	}
}

// everyAlgorithm lists all seven executions built on base.
func everyAlgorithm() []Algorithm {
	return []Algorithm{BBSS{}, FPSS{}, CRSS{}, WOPTSS{}, BFSS{}, EpsilonSeries{}, RangeBFS{Eps: 0.05}}
}

// TestReleaseContract: Release twice is a no-op, Step after Release
// panics, and what Results and Stats returned before Release is not
// touched when the scratch goes on to serve other queries.
func TestReleaseContract(t *testing.T) {
	pts := dataset.CaliforniaLike(3000, 131)
	tree := buildTree(t, pts, 2, 5, 8)
	d := Driver{Tree: tree}
	qs := dataset.SampleQueries(pts, 12, 77)
	fetch := func(reqs []PageRequest) ([]*rtree.FlatNode, error) {
		nodes := make([]*rtree.FlatNode, len(reqs))
		for i, r := range reqs {
			nodes[i] = tree.Store().Get(r.Page).Flat()
		}
		return nodes, nil
	}
	for _, alg := range everyAlgorithm() {
		ex := alg.NewExecution(tree, qs[0], 7, Options{})
		if err := RunWith(ex, alg.Name(), fetch); err != nil {
			t.Fatal(err)
		}
		res, st := ex.Results(), ex.Stats()
		wantRes, wantStats := append([]Neighbor(nil), res...), *st
		wantStats.PerDisk = append([]int(nil), st.PerDisk...)

		ex.Release()
		ex.Release()
		// The released scratch is now the pool's: let other queries of
		// every algorithm write all over it.
		for _, other := range everyAlgorithm() {
			for _, q := range qs[1:] {
				d.Run(other, q, 25, Options{})
			}
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: results changed after Release and reuse", alg.Name())
		}
		if !reflect.DeepEqual(*st, wantStats) || ex.Stats() != st {
			t.Errorf("%s: stats changed after Release and reuse", alg.Name())
		}
		if again := ex.Results(); !reflect.DeepEqual(again, wantRes) {
			t.Errorf("%s: Results() after Release differs", alg.Name())
		}
		// Neither a finished execution nor one released before its
		// first Step may be stepped again.
		fresh := alg.NewExecution(tree, qs[0], 7, Options{})
		fresh.Release()
		for _, released := range []Execution{ex, fresh} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Step after Release did not panic", alg.Name())
					}
				}()
				released.Step(nil)
			}()
		}
	}
}
