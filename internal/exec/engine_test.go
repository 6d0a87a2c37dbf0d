package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
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

// pinnedDir is the driver setting the engine answers at: Engine.KNN
// raises CachedLevels to the directory's levels, height − 1.
func pinnedDir(tree *parallel.Tree) query.Options {
	return query.Options{CachedLevels: tree.Height() - 1}
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
// goroutines fire queries at one shared resident engine; under -race it
// proves the read path is thread-safe end to end. At rest the engine
// decoded nothing and its disks served exactly the reads the queries'
// Stats charge.
func TestEngineConcurrentClients(t *testing.T) {
	tree, pts := buildTree(t, 3000, 6, false, 0)
	queries := dataset.SampleQueries(pts, 64, 5)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 10, query.Options{})
	}

	eng, err := New(tree, Config{WorkersPerDisk: 2, CachePages: 256})
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
	charged := make([]uint64, clients) // Stats.DiskAccesses per client
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c*perClient + i*13) % len(queries)
				alg := algs[(c+i)%len(algs)]
				got, st, err := eng.KNN(context.Background(), alg, queries[qi], 10, query.Options{})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				charged[c] += uint64(st.DiskAccesses)
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
	if !eng.resident || st.PagesFetched == 0 || st.Decodes != 0 {
		t.Fatalf("resident = %v, %d pages fetched with %d decodes: want a resident engine that fetched and decoded nothing",
			eng.resident, st.PagesFetched, st.Decodes)
	}
	var reads, served uint64
	for _, n := range charged {
		reads += n
	}
	for _, d := range eng.Snapshot().Disks {
		served += d.Served
	}
	if served != reads || st.PagesFetched != reads {
		t.Errorf("disks served %d pages, PagesFetched %d, the queries' Stats charge %d", served, st.PagesFetched, reads)
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

// closeWithin runs eng.Close on its own goroutine and fails the test if
// Close panics or has not returned within 5 s, so a worker that never
// calls Done fails here instead of hanging until go test's timeout.
func closeWithin(t *testing.T, eng *Engine) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		eng.Close()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("Close panicked: %v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close has not returned after 5s")
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base, taken before New, within 5 s: every goroutine the engine started
// has exited.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before New", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineClose verifies Close is idempotent, returns promptly, rejects
// later queries, tolerates racing clients and leaves no goroutine behind.
func TestEngineClose(t *testing.T) {
	tree, pts := buildTree(t, 2000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 16, 8)
	base := runtime.NumGoroutine()
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
	closeWithin(t, eng)
	closeWithin(t, eng) // idempotent
	wg.Wait()
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[0], 5, query.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("KNN after Close: %v, want ErrClosed", err)
	}
	waitGoroutines(t, base, "after Close")
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
