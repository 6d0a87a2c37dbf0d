package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

// newPoisoned builds an engine that recycles views and scribbles over
// every view at the moment it declares it unreachable: a reader whose
// hold the engine failed to count computes with NaN coordinates and -1
// references at once, whether or not the memory has been refilled yet.
func newPoisoned(t testing.TB, tree *parallel.Tree, cfg Config) *Engine {
	t.Helper()
	eng, err := New(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.views == nil {
		t.Fatalf("engine with CachePages %d over %d pages recycles no views", cfg.CachePages, tree.Store().Len())
	}
	eng.poison = true
	return eng
}

// expected is the sequential driver's answer to one query.
type expected struct {
	res   []query.Neighbor
	stats *query.Stats
}

var retireAlgs = []query.Algorithm{query.BBSS{}, query.FPSS{}, query.CRSS{}, query.BFSS{}}

// driverAnswers runs every query under every algorithm of retireAlgs on
// the sequential driver.
func driverAnswers(tree *parallel.Tree, queries []geom.Point, k int) [][]expected {
	drv := query.Driver{Tree: tree}
	want := make([][]expected, len(retireAlgs))
	for a, alg := range retireAlgs {
		for _, q := range queries {
			res, st := drv.Run(alg, q, k, query.Options{})
			want[a] = append(want[a], expected{res, st})
		}
	}
	return want
}

// xtreeWithSupernodes is an X-tree over n 10-d uniform points: they
// split with heavy overlap, so the tree answers with supernodes, which
// exceed a page and stay memory-resident.
func xtreeWithSupernodes(t testing.TB, n int) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.Uniform(n, 10, 121)
	tree, err := parallel.New(parallel.Config{
		Dim: 10, NumDisks: 4, Cylinders: 1449,
		MaxOverlapRatio: 0.2, Policy: decluster.ProximityIndex{}, Seed: 121,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	resident := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		if n.Pages(tree.Config().MaxEntries) > 1 {
			resident++
		}
		return true
	})
	if resident == 0 {
		t.Fatal("the X-tree grew no supernode: the resident path is not exercised")
	}
	return tree, pts
}

// TestRecycledViewsMatchDriver is the ownership gate: with every
// retired view poisoned, four concurrent clients on a file-backed
// engine whose cache holds 8 or 32 pages get the driver's neighbours —
// rectangles included — and the driver's Stats, bit for bit, for every
// access method, every stage-driven algorithm, with and without fetch
// coalescing. Run it under -race: a view recycled while a query reads
// it is also a data race.
func TestRecycledViewsMatchDriver(t *testing.T) {
	const k, clients = 10, 4
	nq := 10
	if testing.Short() {
		nq = 4
	}
	rstar, pts := buildTree(t, 2500, 4, false, 0)
	sr, _ := buildTree(t, 2500, 4, true, 0)
	xtree, xpts := xtreeWithSupernodes(t, 4000)
	for _, tc := range []struct {
		name string
		tree *parallel.Tree
		pts  []geom.Point
	}{{"rstar", rstar, pts}, {"sr", sr, pts}, {"xtree", xtree, xpts}} {
		queries := dataset.SampleQueries(tc.pts, nq, 23)
		want := driverAnswers(tc.tree, queries, k)
		for _, cache := range []int{8, 32} {
			for _, coalesce := range []bool{false, true} {
				label := fmt.Sprintf("%s cache=%d coalesce=%v", tc.name, cache, coalesce)
				eng := newPoisoned(t, tc.tree, Config{DataDir: t.TempDir(), CachePages: cache, CoalesceFetches: coalesce})
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := range queries {
							qi := (i + c*3) % len(queries)
							for a, alg := range retireAlgs {
								got, st, err := eng.KNN(context.Background(), alg, queries[qi], k, query.Options{})
								if err != nil {
									t.Errorf("%s %s q%d: %v", label, alg.Name(), qi, err)
									return
								}
								w := want[a][qi]
								sameNeighbors(t, fmt.Sprintf("%s %s q%d", label, alg.Name(), qi), w.res, got)
								if !reflect.DeepEqual(w.stats, st) {
									t.Errorf("%s %s q%d: stats differ: driver %+v, engine %+v", label, alg.Name(), qi, w.stats, st)
									return
								}
							}
						}
					}(c)
				}
				wg.Wait()
				if eng.ViewStats().Reused == 0 {
					t.Errorf("%s: no view was ever recycled: the test exercised nothing", label)
				}
				if cs, s := eng.CacheStats(), eng.Stats(); cs.Hits+cs.Misses != s.PagesFetched {
					t.Errorf("%s: cache hits %d + misses %d != pages fetched %d", label, cs.Hits, cs.Misses, s.PagesFetched)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRecycledViewsUnderFaults: the read paths that make extra views —
// a hedge's losing read, a retried read, a read the id check rejects —
// never hand one of them to the pool twice or while it is read:
// mirrored, hedged, fault-injected, poisoned, four clients, answers
// still the driver's (or a typed degraded-mode error).
func TestRecycledViewsUnderFaults(t *testing.T) {
	const disks, mirrors, k, clients = 4, 2, 10, 4
	tree, pts := buildTree(t, 2500, disks, false, 0)
	queries := dataset.SampleQueries(pts, 12, 31)
	want := driverAnswers(tree, queries, k)
	inj := fault.NewInjector(29)
	for d := 0; d < disks; d++ {
		inj.Set(d*mirrors, fault.Faults{SpikeProb: 0.2, SpikeDelay: 2 * time.Millisecond, Transient: 0.05})
		inj.Set(d*mirrors+1, fault.Faults{Transient: 0.05, MisdirectOn: 7})
	}
	eng := newPoisoned(t, tree, Config{
		DataDir: t.TempDir(), CachePages: 8, CoalesceFetches: true,
		Mirrors: mirrors, Fault: inj, HedgeReads: true, HedgeDelayFloor: 200 * time.Microsecond,
		RetryBackoff: 10 * time.Microsecond, RetryMaxBackoff: 100 * time.Microsecond, DegradeAfter: 1 << 30,
	})
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + c*5) % len(queries)
				for a, alg := range retireAlgs {
					got, _, err := eng.KNN(ctx, alg, queries[qi], k, query.Options{})
					var dataErr *fault.ErrDataUnavailable
					if errors.As(err, &dataErr) {
						continue
					}
					if err != nil {
						t.Errorf("%s q%d: %v", alg.Name(), qi, err)
						return
					}
					sameNeighbors(t, fmt.Sprintf("%s q%d", alg.Name(), qi), want[a][qi].res, got)
				}
			}
		}(c)
	}
	wg.Wait()
	snap := eng.Snapshot()
	if snap.Faults.Retries == 0 || snap.Faults.Hedges == 0 || snap.Faults.IntegrityFailures == 0 {
		t.Errorf("fault paths not all exercised: %+v", snap.Faults)
	}
	if eng.ViewStats().Reused == 0 {
		t.Error("no view was ever recycled")
	}
}

// TestRecycledViewsUnderCancellation: queries cancelled in mid-flight
// (their fetches abandoned, their coalesced waiters refetching) beside
// queries that run to the end. A cancelled query returns its context's
// error or, if it won the race, the right answer; a bystander always
// the right answer.
func TestRecycledViewsUnderCancellation(t *testing.T) {
	const k = 10
	tree, pts := buildTree(t, 2500, 4, false, 0)
	queries := dataset.SampleQueries(pts, 16, 37)
	want := driverAnswers(tree, queries, k)
	inj := fault.NewInjector(3)
	for d := 0; d < 4; d++ {
		inj.Set(d, fault.Faults{SpikeProb: 0.1, SpikeDelay: 300 * time.Microsecond})
	}
	eng := newPoisoned(t, tree, Config{DataDir: t.TempDir(), CachePages: 8, CoalesceFetches: true, Fault: inj})
	defer eng.Close()
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	var wg sync.WaitGroup
	var cancelledRuns atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			doomed := c%2 == 0
			for r := 0; r < rounds; r++ {
				for i := range queries {
					qi := (i + c*3) % len(queries)
					a := (i + r) % len(retireAlgs)
					ctx, cancel := context.Background(), context.CancelFunc(func() {})
					if doomed {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(50+37*((i+r)%9))*time.Microsecond)
					}
					got, _, err := eng.KNN(ctx, retireAlgs[a], queries[qi], k, query.Options{})
					cancel()
					if err != nil {
						if !doomed || !isCancellation(err) {
							t.Errorf("client %d %s q%d: %v", c, retireAlgs[a].Name(), qi, err)
							return
						}
						cancelledRuns.Add(1)
						continue
					}
					sameNeighbors(t, fmt.Sprintf("client %d %s q%d", c, retireAlgs[a].Name(), qi), want[a][qi].res, got)
				}
			}
		}(c)
	}
	wg.Wait()
	if cancelledRuns.Load() == 0 {
		t.Error("no query was cancelled in flight")
	}
	if s := eng.Stats(); s.Cancelled != uint64(cancelledRuns.Load()) {
		t.Errorf("Stats.Cancelled = %d, clients saw %d", s.Cancelled, cancelledRuns.Load())
	}
	if depths := eng.QueueDepths(); !reflect.DeepEqual(depths, make([]int64, len(depths))) {
		t.Errorf("queue depths at rest: %v", depths)
	}
}

// gate is a replica reader that stalls the first read of one page until
// released.
type gate struct {
	pagestore.Reader
	page    rtree.PageID
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gate) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	if id == g.page && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Reader.ReadPage(id)
}

// gatePage wraps the reader of page's disk (mirror 0) in a gate. Call
// it before the engine serves its first query.
func gatePage(t testing.TB, eng *Engine, page rtree.PageID) *gate {
	t.Helper()
	pl, ok := eng.tree.Placement(page)
	if !ok {
		t.Fatalf("page %d unplaced", page)
	}
	rep := eng.replicas[pl.Disk][0]
	g := &gate{Reader: rep.reader, page: page, entered: make(chan struct{}), release: make(chan struct{})}
	rep.reader = g
	return g
}

// stagesOf returns the pages a CRSS query requests, stage by stage, in
// request order.
func stagesOf(tree *parallel.Tree, q geom.Point, k int) [][]rtree.PageID {
	var stages [][]rtree.PageID
	ex := query.CRSS{}.NewExecution(tree, q, k, query.Options{})
	defer ex.Release()
	query.RunWith(ex, "CRSS", func(reqs []query.PageRequest) ([]*rtree.FlatNode, error) {
		nodes := make([]*rtree.FlatNode, len(reqs))
		pages := make([]rtree.PageID, len(reqs))
		for i, r := range reqs {
			pages[i] = r.Page
			nodes[i] = tree.Store().Get(r.Page).Flat()
		}
		stages = append(stages, pages)
		return nodes, nil
	})
	return stages
}

// unrecycled is the number of views the cache has evicted that have not
// come back to the pool: every view the pool was given is idle in it or
// was handed out again, so that is evictions − (reused + idle). With no
// query running it counts the evicted views somebody forgot to release.
func unrecycled(eng *Engine) int {
	vs := eng.ViewStats()
	return int(eng.CacheStats().Evictions) - int(vs.Reused) - vs.Idle
}

// TestStalledStageHoldsOnlyItsViews: a query stalls inside a stage —
// its slots holding the views of the stage's other pages — while other
// clients churn the cache many times over. Every view evicted meanwhile
// goes back to the pool except exactly those the stalled stage holds,
// and the stalled query still computes the driver's answer from its
// poisoned-if-recycled views. Once it returns, its views come back too.
func TestStalledStageHoldsOnlyItsViews(t *testing.T) {
	const k = 10
	tree, pts := buildTree(t, 4000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 40, 41)
	// The stalled query is the one with the widest stage; the victim is
	// that stage's last page.
	var stalled geom.Point
	var stage []rtree.PageID
	for _, q := range queries {
		for _, s := range stagesOf(tree, q, k) {
			if len(s) > len(stage) {
				stalled, stage = q, s
			}
		}
	}
	if len(stage) < 3 {
		t.Fatalf("the widest stage has %d requests: nothing to hold", len(stage))
	}
	victim, held := stage[len(stage)-1], len(stage)-1
	// Churn with queries that never ask for the stalled page: they would
	// wait for its fetch in the cache's own singleflight.
	var churn []geom.Point
	for _, q := range queries {
		touches := false
		for _, s := range stagesOf(tree, q, k) {
			touches = touches || slices.Contains(s, victim)
		}
		if !touches {
			churn = append(churn, q)
		}
	}
	if len(churn) < 10 {
		t.Fatalf("only %d of %d queries avoid page %d", len(churn), len(queries), victim)
	}
	want := driverAnswers(tree, append([]geom.Point{stalled}, churn...), k)[2] // CRSS

	eng := newPoisoned(t, tree, Config{CachePages: 16, CacheShards: 2, WorkersPerDisk: 2})
	defer eng.Close()
	g := gatePage(t, eng, victim)
	const clients = 3
	runChurn := func(rounds int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := range churn {
						qi := (i + 7*c) % len(churn)
						got, _, err := eng.KNN(context.Background(), query.CRSS{}, churn[qi], k, query.Options{})
						if err != nil {
							t.Errorf("churn q%d: %v", qi, err)
							return
						}
						sameNeighbors(t, fmt.Sprintf("churn q%d", qi), want[1+qi].res, got)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	runChurn(2) // warm: the frames are made
	if eng.ViewStats().Reused == 0 {
		t.Fatal("warm-up recycled nothing")
	}
	if n := unrecycled(eng); n != 0 {
		t.Fatalf("%d evicted views missing from the pool with no query running", n)
	}
	// Fill the cache with the stalled query's own pages, then drop the
	// victim: the re-run stalls on the victim with the views of the
	// victim's stage-mates in its slots.
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, stalled, k, query.Options{}); err != nil {
		t.Fatal(err)
	}
	eng.cache.Remove(victim)
	g.armed.Store(true)
	type answer struct {
		res []query.Neighbor
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, _, err := eng.KNN(context.Background(), query.CRSS{}, stalled, k, query.Options{})
		done <- answer{res, err}
	}()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled query never reached its gated page")
	}

	for round := 0; round < 2; round++ {
		runChurn(3) // the first evicts everything the stalled stage holds
		if n := unrecycled(eng); n != held {
			t.Errorf("%d evicted views are out of the pool beside a stage stalled with %d in its slots", n, held)
		}
	}

	close(g.release)
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	sameNeighbors(t, "stalled query", want[0].res, a.res)
	if n := unrecycled(eng); n != 0 {
		t.Errorf("%d evicted views still out of the pool after the stalled query returned", n)
	}
}

// TestHoldRacesEvict: readers taking the cached view as a cache hit
// does — a hold under the shard lock — and reading it until they drop
// the hold, against a fetcher that admits a new view and evicts the old
// as fast as it can. Whoever brings a view to "evicted, no holds"
// recycles it, poisoned, so a view recycled under a reader shows as a
// changed id (and, under -race, as a race); a view recycled twice
// panics in the pool. The frames stay as few as the cache, the fetch in
// flight and the readers can have out at once.
func TestHoldRacesEvict(t *testing.T) {
	const clients = 8
	iters := 100000
	if testing.Short() || raceEnabled {
		iters = 20000
	}
	e := &Engine{views: rtree.NewViewPool(clients + 2), poison: true}
	e.cache = bufferpool.NewSharded[rtree.PageID, *rtree.FlatNode](1, 1, func(rtree.PageID) uint64 { return 0 })
	e.cache.OnHandOut((*rtree.FlatNode).Hold)
	e.cache.OnEvict(e.retire)
	newView := func(id rtree.PageID) *rtree.FlatNode {
		f, refs := rtree.NewPageView(e.views, id, 0, 2, 4, false)
		for i := range refs {
			refs[i] = rtree.PageRef{Ref: int64(id), Count: 1}
			f.Rects.Lo[0][i], f.Rects.Hi[0][i] = float64(id), float64(id)
			f.Rects.Lo[1][i], f.Rects.Hi[1][i] = float64(id), float64(id)
		}
		return f
	}
	// read checks a held view and drops the hold the way a stage does.
	read := func(sc *stageScratch, v *rtree.FlatNode, id rtree.PageID) bool {
		ok := true
		for r := 0; r < 4 && ok; r++ {
			if v.ID != id || v.Object(r) != rtree.ObjectID(id) || v.Rects.Lo[1][r] != float64(id) {
				t.Errorf("view of page %d changed under a hold: id %d object %d lo %g", id, v.ID, v.Object(r), v.Rects.Lo[1][r])
				ok = false
			}
		}
		sc.reset(1)[0].node = v
		e.releaseStage(sc)
		sc.unpin()
		return ok
	}
	var current atomic.Int64 // the page that is cached, give or take an eviction
	stop := make(chan struct{})
	var fetcher sync.WaitGroup
	fetcher.Add(1)
	go func() {
		defer fetcher.Done()
		sc := newStageScratch()
		for id := rtree.PageID(1); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			v, _, _ := e.cache.GetOrFetchHit(id, func() (*rtree.FlatNode, error) { return newView(id), nil })
			current.Store(int64(id))
			if !read(sc, v, id) {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var hits atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newStageScratch()
			for i := 0; i < iters; i++ {
				id := rtree.PageID(current.Load())
				v, ok := e.cache.Probe(id)
				if !ok {
					continue // evicted since: a miss takes no hold
				}
				hits.Add(1)
				if !read(sc, v, id) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	fetcher.Wait()
	if hits.Load() == 0 {
		t.Error("no reader ever hit the cached view")
	}
	vs := e.ViewStats()
	if vs.Reused == 0 {
		t.Error("no view was ever recycled")
	}
	if vs.Made > clients+2 {
		t.Errorf("%d views made for a 1-page cache, one fetch in flight and %d readers", vs.Made, clients)
	}
	if n := unrecycled(e); n != 0 {
		t.Errorf("%d evicted views missing from the pool at rest", n)
	}
}

// missPathTree is the 8-d tree of the miss-path tests: with a cache of a
// twentieth of its pages a query reads a hundred pages and more and
// misses on most of them.
func missPathTree(t testing.TB) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.Gaussian(6000, 8, 1998)
	tree, err := parallel.New(parallel.Config{
		Dim: 8, NumDisks: 5, Cylinders: 1449, Policy: decluster.ProximityIndex{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree, dataset.SampleQueries(pts, 32, 3)
}

// mallocsPerQuery runs every query rounds times on each of clients
// goroutines and returns the heap allocations per query of the whole
// process meanwhile, goroutine start-up included.
func mallocsPerQuery(t testing.TB, eng *Engine, queries []geom.Point, clients, rounds int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*len(queries); i++ {
				if _, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[(i+5*c)%len(queries)], 10, query.Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(clients*rounds*len(queries))
}

// TestMissPathAllocBudget: on a file-backed engine whose cache holds a
// twentieth of the pages, a steady-state query allocates a constant —
// the four objects every query hands its caller, the result's
// rectangles, and a margin for a pool the collector emptied — however
// many pages it misses and however many clients run beside it. Views,
// flight records, waiter lists, stage state and rectangle slots are all
// reused, so what a query allocates is code, not timing: a second
// measurement over the same query list agrees with the first within 1 %.
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const budget = 8
	tree, queries := missPathTree(t)
	// No collection while measuring: each one empties the sync.Pools and
	// the runtime's own caches, and what their refill allocates is not
	// the engine's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, coalesce := range []bool{false, true} {
		for _, clients := range []int{1, 2, 8} {
			label := fmt.Sprintf("coalesce=%v clients=%d", coalesce, clients)
			eng, err := New(tree, Config{DataDir: t.TempDir(), CachePages: tree.Store().Len() / 20, CoalesceFetches: coalesce})
			if err != nil {
				t.Fatal(err)
			}
			// Warm with more clients than are measured: frames, spare lists,
			// and more scratch in the sync.Pools than the measured clients
			// can have out — a pool that misses because a goroutine changed
			// processors is the pool's timing, not the engine's.
			mallocsPerQuery(t, eng, queries, clients+6, 2)
			rounds := 16 / clients // five hundred queries a measurement
			before := eng.Snapshot()
			first := mallocsPerQuery(t, eng, queries, clients, rounds)
			second := mallocsPerQuery(t, eng, queries, clients, rounds)
			d := eng.Snapshot().Sub(before)
			n := float64(d.Stats.Queries)
			if decodes, pages := float64(d.Stats.Decodes)/n, float64(d.Stats.PagesFetched)/n; decodes < pages/2 {
				t.Fatalf("%s: %.1f decodes for %.1f pages per query: not a miss-path workload", label, decodes, pages)
			}
			if first > budget || second > budget {
				t.Errorf("%s: %.2f and %.2f allocations per query, budget %d", label, first, second, budget)
			}
			if diff := math.Abs(first - second); diff > 0.01*min(first, second) {
				t.Errorf("%s: two measurements of the same query list read %.3f and %.3f allocations per query", label, first, second)
			}
			if made := float64(d.Views.Made) / n; made > 0.01 {
				t.Errorf("%s: %.3f views made per query after warm-up", label, made)
			}
			t.Logf("%s: %.2f / %.2f allocations, %.1f decodes per query, views %+v", label, first, second, float64(d.Stats.Decodes)/n, d.Views)
			eng.Close()
		}
	}
}

// TestFramesAreBounded: while clients run, the views idle in the pool
// and the views resident in the cache never number more than the cache
// holds, plus the reads that can be in flight, plus what the running
// stages can hold — and neither do the views ever made, since the pool
// makes one only when every other is out.
func TestFramesAreBounded(t *testing.T) {
	const clients = 4
	tree, queries := missPathTree(t)
	widest := 0
	for _, q := range queries {
		for _, s := range stagesOf(tree, q, 10) {
			widest = max(widest, len(s))
		}
	}
	for _, coalesce := range []bool{false, true} {
		eng, err := New(tree, Config{DataDir: t.TempDir(), CachePages: tree.Store().Len() / 20, CoalesceFetches: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		bound := eng.cache.Capacity() + eng.cfg.MaxInFlight + clients*widest
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := eng.ViewStats().Idle + eng.cache.Len(); n > bound {
					t.Errorf("coalesce=%v: %d views idle or resident, bound %d", coalesce, n, bound)
					return
				}
				runtime.Gosched()
			}
		}()
		rounds := 6
		if testing.Short() {
			rounds = 2
		}
		mallocsPerQuery(t, eng, queries, clients, rounds)
		close(stop)
		sampler.Wait()
		vs := eng.ViewStats()
		if int(vs.Made) > bound {
			t.Errorf("coalesce=%v: %d views made, bound %d (cache %d + in flight %d + %d stages of %d)",
				coalesce, vs.Made, bound, eng.cache.Capacity(), eng.cfg.MaxInFlight, clients, widest)
		}
		if n := unrecycled(eng); n != 0 {
			t.Errorf("coalesce=%v: %d evicted views missing from the pool at rest", coalesce, n)
		}
		t.Logf("coalesce=%v: views %+v, bound %d", coalesce, vs, bound)
		eng.Close()
	}
}

// TestFailedStageLeavesNoHold: queries that fail in mid-stage — an
// injected I/O error on one page, a context cancelled while the others
// are in flight — drop the holds on the views their slots did get. Once
// clean queries have churned the cache past everything the failed ones
// touched, every evicted view is back in the pool; a hold left behind
// would keep its view out for good.
func TestFailedStageLeavesNoHold(t *testing.T) {
	const k, disks = 10, 4
	tree, pts := buildTree(t, 2500, disks, false, 0)
	queries := dataset.SampleQueries(pts, 16, 43)
	want := driverAnswers(tree, queries, k)
	churn := func(t *testing.T, eng *Engine) {
		for r := 0; r < 3; r++ {
			for qi, q := range queries {
				got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, k, query.Options{})
				if err != nil {
					t.Fatalf("clean q%d: %v", qi, err)
				}
				sameNeighbors(t, fmt.Sprintf("clean q%d", qi), want[2][qi].res, got)
			}
		}
		if n := unrecycled(eng); n != 0 {
			t.Errorf("%d evicted views never came back to the pool", n)
		}
	}
	t.Run("io error", func(t *testing.T) {
		inj := fault.NewInjector(47)
		for d := 0; d < disks; d++ {
			inj.Set(d, fault.Faults{Transient: 0.05})
		}
		eng := newPoisoned(t, tree, Config{CachePages: 8, CoalesceFetches: true, Fault: inj, RetryLimit: -1, DegradeAfter: 1 << 30})
		defer eng.Close()
		var wg sync.WaitGroup
		var failed atomic.Int64
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range queries {
					qi := (i + c*3) % len(queries)
					got, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[qi], k, query.Options{})
					var dataErr *fault.ErrDataUnavailable
					if errors.As(err, &dataErr) {
						failed.Add(1)
						continue
					}
					if err != nil {
						t.Errorf("q%d: %v", qi, err)
						return
					}
					sameNeighbors(t, fmt.Sprintf("q%d", qi), want[2][qi].res, got)
				}
			}(c)
		}
		wg.Wait()
		if failed.Load() == 0 {
			t.Fatal("no query failed on an injected I/O error")
		}
		for d := 0; d < disks; d++ {
			inj.Set(d, fault.Faults{})
		}
		churn(t, eng)
	})
	t.Run("cancelled", func(t *testing.T) {
		inj := fault.NewInjector(3)
		for d := 0; d < disks; d++ {
			inj.Set(d, fault.Faults{SpikeProb: 0.1, SpikeDelay: 300 * time.Microsecond})
		}
		eng := newPoisoned(t, tree, Config{DataDir: t.TempDir(), CachePages: 8, CoalesceFetches: true, Fault: inj})
		defer eng.Close()
		var wg sync.WaitGroup
		var cancelled atomic.Int64
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					for i := range queries {
						qi := (i + c*3) % len(queries)
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+37*((i+r)%9))*time.Microsecond)
						got, _, err := eng.KNN(ctx, query.CRSS{}, queries[qi], k, query.Options{})
						cancel()
						if err != nil {
							if !isCancellation(err) {
								t.Errorf("q%d: %v", qi, err)
								return
							}
							cancelled.Add(1)
							continue
						}
						sameNeighbors(t, fmt.Sprintf("q%d", qi), want[2][qi].res, got)
					}
				}
			}(c)
		}
		wg.Wait()
		if cancelled.Load() == 0 {
			t.Fatal("no query was cancelled in flight")
		}
		churn(t, eng)
	})
}

// semWaitObserver keeps the SemWait events of a stage.
type semWaitObserver struct{ waits []time.Duration }

func (o *semWaitObserver) Observe(ev obs.Event) {
	if ev.Type == obs.SemWait {
		o.waits = append(o.waits, ev.Wall)
	}
}

// TestRefetchSemWaitIsReported: a stage whose coalesced flight was
// cancelled by its leader refetches the page, and the in-flight slot it
// waits for then — the only slot is held by a blocker — must reach the
// sem-wait histogram and the stage's SemWait event. It used to be
// accumulated and dropped.
func TestRefetchSemWaitIsReported(t *testing.T) {
	tree, _ := buildTree(t, 400, 3, false, 0)
	eng, err := New(tree, Config{CoalesceFetches: true, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	root := tree.Root()
	pl, _ := tree.Placement(root)
	req := query.PageRequest{Page: root, Disk: pl.Disk, Pages: 1}

	sh, _ := eng.co.join(root, newStageScratch(), 0) // the doomed leader's flight
	before := eng.semWait.Snapshot()
	var rec semWaitObserver
	done := make(chan error, 1)
	go func() {
		nodes, err := eng.fetchBatch(context.Background(), 0, []query.PageRequest{req}, &rec)
		if err == nil && (len(nodes) != 1 || nodes[0].ID != root) {
			err = fmt.Errorf("wrong node delivered: %+v", nodes)
		}
		done <- err
	}()
	waitForWaiter(t, sh, root)
	eng.sem <- struct{}{} // the blocker takes the only in-flight slot
	eng.abortFlight(sh, root, context.Canceled)
	const held = 30 * time.Millisecond
	time.Sleep(held)
	<-eng.sem
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the refetch never got its slot")
	}
	if len(rec.waits) != 1 || rec.waits[0] < held/2 {
		t.Errorf("SemWait events %v, want one of about %v", rec.waits, held)
	}
	d := eng.semWait.Snapshot().Sub(before)
	if d.Count != 1 || d.Sum < (held/2).Seconds() {
		t.Errorf("sem-wait histogram moved by %d observations summing %.4fs, want one of about %v", d.Count, d.Sum, held)
	}
}

// spent fails unless the scratch's countdown is back at zero with no
// token left behind — what the next stage, or the next query, relies on.
func spent(t *testing.T, sc *stageScratch) {
	t.Helper()
	if n := sc.pending.Load(); n != 0 {
		t.Errorf("countdown at %d after the stage returned", n)
	}
	if len(sc.done) != 0 {
		t.Error("a completion token was left in the channel")
	}
}

// TestStageRefetchesEveryAbortedFlight: every request of a stage joins a
// foreign flight and every one of those flights is aborted by its
// leader's cancellation. The stage refetches all of them, once, and
// returns the right nodes in request order.
func TestStageRefetchesEveryAbortedFlight(t *testing.T) {
	tree, _ := buildTree(t, 2000, 4, false, 0)
	eng, err := New(tree, Config{CoalesceFetches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	byDisk := pagesByDisk(t, tree, func(id rtree.PageID) (int, bool) {
		pl, ok := tree.Placement(id)
		return pl.Disk, ok
	})
	var reqs []query.PageRequest
	for d := 0; d < 4; d++ {
		for _, id := range byDisk[d][:2] {
			reqs = append(reqs, query.PageRequest{Page: id, Disk: d, Pages: 1})
		}
	}
	shards := make([]*coShard, len(reqs))
	for i, r := range reqs {
		shards[i], _ = eng.co.join(r.Page, newStageScratch(), 0)
	}
	sc := newStageScratch()
	type outcome struct {
		ids []rtree.PageID
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		nodes, err := eng.fetchStage(context.Background(), sc, 0, reqs, nil)
		var ids []rtree.PageID
		for _, n := range nodes {
			ids = append(ids, n.ID)
		}
		done <- outcome{ids, err}
	}()
	for i, r := range reqs {
		waitForWaiter(t, shards[i], r.Page)
	}
	before := eng.Stats()
	for i, r := range reqs {
		eng.abortFlight(shards[i], r.Page, context.Canceled)
	}
	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stage hung after its flights were aborted")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, r := range reqs {
		if out.ids[i] != r.Page {
			t.Fatalf("slot %d holds page %d, want %d", i, out.ids[i], r.Page)
		}
	}
	if d := eng.Stats().Sub(before); d.PagesFetched != uint64(len(reqs)) || d.Decodes != uint64(len(reqs)) {
		t.Errorf("refetch served %d pages with %d decodes, want %d each", d.PagesFetched, d.Decodes, len(reqs))
	}
	if got := eng.Stats().FetchesCoalesced; got != uint64(len(reqs)) {
		t.Errorf("FetchesCoalesced = %d, want %d", got, len(reqs))
	}
	spent(t, sc)
}

// TestLateDeliveryAfterFailedSubmit: the submit loop fails half-way —
// the second request cannot get an in-flight slot before the query is
// cancelled — while the first request's worker is still reading. The
// stage waits for that delivery, reports the cancellation, and leaves
// the countdown spent: the same scratch then runs a clean stage.
func TestLateDeliveryAfterFailedSubmit(t *testing.T) {
	tree, _ := buildTree(t, 2000, 4, false, 0)
	eng, err := New(tree, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	byDisk := pagesByDisk(t, tree, func(id rtree.PageID) (int, bool) {
		pl, ok := tree.Placement(id)
		return pl.Disk, ok
	})
	slow, other := byDisk[0][0], byDisk[1][0]
	g := gatePage(t, eng, slow)
	g.armed.Store(true)
	reqs := []query.PageRequest{{Page: slow, Disk: 0, Pages: 1}, {Page: other, Disk: 1, Pages: 1}}

	sc := newStageScratch()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.fetchStage(ctx, sc, 0, reqs, nil)
		done <- err
	}()
	<-g.entered // the first request holds the only slot: the second cannot be submitted
	cancel()
	select {
	case err := <-done:
		t.Fatalf("the stage returned (%v) while a worker still owed it a delivery", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stage never returned")
	}
	spent(t, sc)
	nodes, err := eng.fetchStage(context.Background(), sc, 1, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].ID != slow || nodes[1].ID != other {
		t.Fatalf("clean stage on the same scratch delivered pages %d, %d", nodes[0].ID, nodes[1].ID)
	}
	spent(t, sc)
}
