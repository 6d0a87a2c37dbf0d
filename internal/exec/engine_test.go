package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/simarray"
)

// buildTree returns a populated parallel R*-tree for engine tests.
func buildTree(t testing.TB, n, numDisks int, spheres bool, overlap float64) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.CaliforniaLike(n, 7)
	tree, err := parallel.New(parallel.Config{
		Dim:             2,
		NumDisks:        numDisks,
		Cylinders:       disk.HPC2200A().Cylinders,
		Policy:          decluster.ProximityIndex{},
		Seed:            11,
		UseSpheres:      spheres,
		MaxOverlapRatio: overlap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

// sameNeighbors fails unless a and b are the identical result set:
// objects, distances and the rectangles the results carry, bitwise.
func sameNeighbors(t *testing.T, label string, a, b []query.Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Object != b[i].Object || a[i].DistSq != b[i].DistSq {
			t.Fatalf("%s: result %d differs: (%d, %g) vs (%d, %g)",
				label, i, a[i].Object, a[i].DistSq, b[i].Object, b[i].DistSq)
		}
		if !sameBits(a[i].Rect.Lo, b[i].Rect.Lo) || !sameBits(a[i].Rect.Hi, b[i].Rect.Hi) {
			t.Fatalf("%s: result %d rect differs: %v vs %v", label, i, a[i].Rect, b[i].Rect)
		}
	}
}

func sameBits(a, b geom.Point) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEngineMatchesDriver is the real-vs-immediate equivalence gate:
// for identical queries every algorithm must return exactly the k-NN
// sets of the sequential Driver, with and without the engine cache.
func TestEngineMatchesDriver(t *testing.T) {
	tree, pts := buildTree(t, 4000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 40, 3)
	drv := query.Driver{Tree: tree}

	for _, cache := range []int{0, 128} {
		eng, err := New(tree, Config{CachePages: cache})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []query.Algorithm{query.CRSS{}, query.BBSS{}, query.FPSS{}, query.BFSS{}} {
			for qi, q := range queries {
				want, wantStats := drv.Run(alg, q, 10, query.Options{})
				got, gotStats, err := eng.KNN(context.Background(), alg, q, 10, query.Options{})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s q%d cache=%d", alg.Name(), qi, cache)
				sameNeighbors(t, label, want, got)
				if gotStats.NodesVisited != wantStats.NodesVisited || gotStats.Batches != wantStats.Batches {
					t.Fatalf("%s: stats diverge: visited %d/%d batches %d/%d", label,
						gotStats.NodesVisited, wantStats.NodesVisited, gotStats.Batches, wantStats.Batches)
				}
			}
		}
		eng.Close()
	}
}

// TestEngineMatchesSimulator checks the acceptance criterion directly:
// engine-mode CRSS returns exactly the same k-NN sets as simulator-mode
// CRSS for identical datasets and queries.
func TestEngineMatchesSimulator(t *testing.T) {
	tree, pts := buildTree(t, 3000, 8, false, 0)
	queries := dataset.SampleQueries(pts, 25, 9)

	sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(simarray.Workload{
		Algorithm: query.CRSS{}, K: 10, Queries: queries, ArrivalRate: 50,
	})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := New(tree, Config{WorkersPerDisk: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, q := range queries {
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, fmt.Sprintf("crss q%d", i), res.Outcomes[i].Results, got)
	}
}

// TestEngineSpheresAndSupernodes exercises the two special page
// layouts: SR-tree sphere entries (version-2 codec) and X-tree
// supernodes (resident fallback, no single-page encoding).
func TestEngineSpheresAndSupernodes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spheres bool
		overlap float64
	}{
		{"srtree", true, 0},
		{"xtree", false, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, pts := buildTree(t, 2500, 4, tc.spheres, tc.overlap)
			queries := dataset.SampleQueries(pts, 15, 2)
			drv := query.Driver{Tree: tree}
			eng, err := New(tree, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for qi, q := range queries {
				want, _ := drv.Run(query.CRSS{}, q, 5, query.Options{})
				got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameNeighbors(t, fmt.Sprintf("%s q%d", tc.name, qi), want, got)
			}
		})
	}
}

// TestEngineConcurrentClients is the multi-client stress gate: many
// goroutines fire queries at one shared engine; under -race it proves
// the read path is thread-safe end to end.
func TestEngineConcurrentClients(t *testing.T) {
	tree, pts := buildTree(t, 3000, 6, false, 0)
	queries := dataset.SampleQueries(pts, 64, 5)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 10, query.Options{})
	}

	eng, err := New(tree, Config{WorkersPerDisk: 2, CachePages: 256, MaxInFlight: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	clients := 8
	perClient := 30
	if testing.Short() {
		clients, perClient = 4, 10
	}
	algs := []query.Algorithm{query.CRSS{}, query.FPSS{}, query.BBSS{}}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c*perClient + i*13) % len(queries)
				alg := algs[(c+i)%len(algs)]
				got, _, err := eng.KNN(context.Background(), alg, queries[qi], 10, query.Options{})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if alg.Name() == "CRSS" {
					for j := range got {
						if got[j].Object != want[qi][j].Object || got[j].DistSq != want[qi][j].DistSq {
							t.Errorf("client %d query %d: result %d diverged", c, qi, j)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := eng.Stats()
	if st.Queries != uint64(clients*perClient) {
		t.Fatalf("Queries = %d, want %d", st.Queries, clients*perClient)
	}
	if st.PagesFetched == 0 {
		t.Fatal("no pages fetched")
	}
	if cs := eng.CacheStats(); cs.Hits == 0 {
		t.Error("shared cache saw no hits under concurrent load")
	}
}

// TestEngineSharedCacheStatsParity is the admit-on-delivery parity
// gate: the same query sequence run through a shared buffer pool must
// produce bit-identical per-query stats (including the per-disk read
// vectors) under the immediate Driver, the system simulator and the
// concurrent engine. Each driver gets its own fresh pool; because the
// pool's residency now evolves only with delivered pages, all three
// see the identical hit sequence.
func TestEngineSharedCacheStatsParity(t *testing.T) {
	tree, pts := buildTree(t, 3000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 20, 13)
	newPool := func() *bufferpool.Pool[rtree.PageID, struct{}] {
		return bufferpool.New[rtree.PageID, struct{}](256)
	}

	drv := query.Driver{Tree: tree}
	pool := newPool()
	want := make([]*query.Stats, len(queries))
	wantRes := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		wantRes[i], want[i] = drv.Run(query.CRSS{}, q, 10, query.Options{SharedCache: pool})
	}
	hits := 0
	for _, st := range want {
		hits += st.NodesVisited - st.DiskAccesses
	}
	if hits == 0 {
		t.Fatal("query sequence produced no shared-cache hits; parity is vacuous")
	}

	sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(simarray.Workload{
		Algorithm: query.CRSS{}, K: 10, Queries: queries,
		Options: query.Options{SharedCache: newPool()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !reflect.DeepEqual(res.Outcomes[i].Stats, want[i]) {
			t.Fatalf("simulator stats for q%d: %+v, driver %+v", i, res.Outcomes[i].Stats, want[i])
		}
	}

	eng, err := New(tree, Config{WorkersPerDisk: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	engPool := newPool()
	for i, q := range queries {
		got, st, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{SharedCache: engPool})
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, fmt.Sprintf("cached q%d", i), wantRes[i], got)
		if !reflect.DeepEqual(st, want[i]) {
			t.Fatalf("engine stats for q%d: %+v, driver %+v", i, st, want[i])
		}
	}
}

// TestEngineCancelledQueryDoesNotPoisonSharedCache: a cancelled query
// must not leave pages it never fetched resident in a shared pool —
// the failure mode of admit-before-fetch.
func TestEngineCancelledQueryDoesNotPoisonSharedCache(t *testing.T) {
	tree, pts := buildTree(t, 2000, 4, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := bufferpool.New[rtree.PageID, struct{}](256)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.KNN(ctx, query.CRSS{}, pts[0], 10, query.Options{SharedCache: pool}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := pool.Len(); n != 0 {
		t.Fatalf("cancelled query planted %d pages in the shared pool", n)
	}

	// The pool is still usable and fills with exactly the pages a
	// successful query physically reads.
	_, st, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 10, query.Options{SharedCache: pool})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != st.DiskAccesses {
		t.Fatalf("pool holds %d pages, query fetched %d", pool.Len(), st.DiskAccesses)
	}
}

// TestEngineCancellation verifies context cancellation aborts a query
// and leaves the engine healthy.
func TestEngineCancellation(t *testing.T) {
	tree, pts := buildTree(t, 2000, 4, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first fetch must abort
	_, _, err = eng.KNN(ctx, query.CRSS{}, pts[0], 10, query.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}

	// The engine still answers fresh queries afterwards.
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 10, query.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineClose verifies Close is idempotent, rejects later queries,
// and tolerates racing clients.
func TestEngineClose(t *testing.T) {
	tree, pts := buildTree(t, 2000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 16, 8)
	eng, err := New(tree, Config{WorkersPerDisk: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[(c+i)%len(queries)], 5, query.Options{})
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	eng.Close()
	eng.Close() // idempotent
	wg.Wait()
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[0], 5, query.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("KNN after Close: %v, want ErrClosed", err)
	}
}

// TestEngineRejectsBadInput covers the argument validation paths.
func TestEngineRejectsBadInput(t *testing.T) {
	tree, pts := buildTree(t, 500, 3, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 0, query.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, geom.Point{1, 2, 3}, 5, query.Options{}); err == nil {
		t.Error("dim mismatch accepted")
	}
}
