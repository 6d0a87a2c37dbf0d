package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// every view at the moment it declares it unreachable: a reader the
// generation rule missed computes with NaN coordinates and -1
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
				if eng.views.Reused() == 0 {
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
	if eng.views.Reused() == 0 {
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

// pagesOf returns the pages a CRSS query requests, in request order.
func pagesOf(tree *parallel.Tree, q geom.Point, k int) []rtree.PageID {
	var pages []rtree.PageID
	ex := query.CRSS{}.NewExecution(tree, q, k, query.Options{})
	defer ex.Release()
	query.RunWith(ex, "CRSS", func(reqs []query.PageRequest) ([]*rtree.FlatNode, error) {
		nodes := make([]*rtree.FlatNode, len(reqs))
		for i, r := range reqs {
			pages = append(pages, r.Page)
			nodes[i] = tree.Store().Get(r.Page).Flat()
		}
		return nodes, nil
	})
	return pages
}

// TestStalledQueryHoldsItsGeneration: a query stalls inside a stage —
// holding views it was served from the cache — while other clients
// churn the cache many times over. Generations may move once past the
// stalled query's and no further: nothing is handed out again, the
// limbo lists stop growing at their cap (the rest goes to the
// collector), and the stalled query still computes the driver's answer
// from its poisoned-if-recycled views. Once it returns, generations
// move and the pool refills.
func TestStalledQueryHoldsItsGeneration(t *testing.T) {
	const k = 10
	tree, pts := buildTree(t, 4000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 40, 41)
	stalled := queries[0]
	sp := pagesOf(tree, stalled, k)
	victim := sp[len(sp)-1] // a leaf of the query's last stage
	// Churn with queries that never ask for the stalled page: they would
	// wait for its fetch in the cache's own singleflight.
	var churn []geom.Point
	for _, q := range queries[1:] {
		touches := false
		for _, p := range pagesOf(tree, q, k) {
			touches = touches || p == victim
		}
		if !touches {
			churn = append(churn, q)
		}
	}
	if len(churn) < 10 {
		t.Fatalf("only %d of %d queries avoid page %d", len(churn), len(queries)-1, victim)
	}
	want := driverAnswers(tree, append([]geom.Point{stalled}, churn...), k)[2] // CRSS

	eng := newPoisoned(t, tree, Config{CachePages: 16, CacheShards: 2, WorkersPerDisk: 2})
	defer eng.Close()
	g := gatePage(t, eng, victim)
	runChurn := func(clients, rounds int) {
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
	state := func() (gen uint64, limbo [2]int) {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return eng.gen, [2]int{len(eng.limbo[0]), len(eng.limbo[1])}
	}

	runChurn(3, 2) // warm: generations turn over, the pool is in use
	if eng.views.Reused() == 0 {
		t.Fatal("warm-up recycled nothing")
	}
	// Fill the cache with the stalled query's own pages, then drop the
	// victim: the re-run hits on the victim's stage-mates and stalls on
	// the victim with those views in its slots.
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, stalled, k, query.Options{}); err != nil {
		t.Fatal(err)
	}
	eng.cache.Remove(victim)
	genBefore, _ := state()
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

	runChurn(3, 3) // drains the pool and everything parked before the stall
	gen1, _ := state()
	reused1 := eng.views.Reused()
	runChurn(3, 3)
	gen2, limbo2 := state()
	if gen1 > genBefore+1 || gen2 != gen1 {
		t.Errorf("generations moved %d -> %d -> %d beside a query pinned at %d", genBefore, gen1, gen2, genBefore)
	}
	if got := eng.views.Reused(); got != reused1 || eng.views.Len() != 0 {
		t.Errorf("views handed out again while the generation was held: reused %d -> %d, %d idle", reused1, got, eng.views.Len())
	}
	if limbo2[gen2&1] != eng.limboCap || limbo2[0] > eng.limboCap || limbo2[1] > eng.limboCap {
		t.Errorf("limbo lists %v under a held generation, cap %d", limbo2, eng.limboCap)
	}

	close(g.release)
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	sameNeighbors(t, "stalled query", want[0].res, a.res)
	runChurn(3, 2)
	if gen3, _ := state(); gen3 <= gen2 {
		t.Errorf("generation still %d after the stalled query returned", gen3)
	}
	if got := eng.views.Reused(); got <= reused1 {
		t.Errorf("the pool did not refill after the stalled query returned: reused %d", got)
	}
}

// TestPinRacesAdvance: queries beginning and ending as fast as they can
// against a retirer that evicts as fast as it can. Every query takes
// the currently cached view after it has begun — as a cache hit does —
// and reads it until it ends; the retirer poisons what it recycles, so
// a view recycled under a query pinned at or before its eviction
// generation shows as a changed id (and, under -race, as a race).
func TestPinRacesAdvance(t *testing.T) {
	const clients = 8
	iters := 100000
	if testing.Short() || raceEnabled {
		iters = 20000
	}
	e := &Engine{
		drained:  make(chan struct{}, 2),
		views:    rtree.NewViewPool(64),
		limboCap: 64,
		poison:   true,
	}
	newView := func(id rtree.PageID) *rtree.FlatNode {
		f, refs := rtree.NewPageView(e.views, id, 0, 2, 4, false)
		for i := range refs {
			refs[i] = rtree.PageRef{Ref: int64(id), Count: 1}
			f.Rects.Lo[0][i], f.Rects.Hi[0][i] = float64(id), float64(id)
			f.Rects.Lo[1][i], f.Rects.Hi[1][i] = float64(id), float64(id)
		}
		return f
	}
	var cached atomic.Pointer[rtree.FlatNode]
	cached.Store(newView(1))
	stop := make(chan struct{})
	var retirer sync.WaitGroup
	retirer.Add(1)
	go func() {
		defer retirer.Done()
		for id := rtree.PageID(2); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			if id < 0 {
				id = 2
			}
			e.retire(cached.Swap(newView(id)))
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pin, err := e.begin()
				if err != nil {
					t.Error(err)
					return
				}
				v := cached.Load()
				id := v.ID
				for r := 0; r < 4; r++ {
					if v.ID != id || v.Object(r) != rtree.ObjectID(id) || v.Rects.Lo[1][r] != float64(id) {
						t.Errorf("view of page %d changed under a pinned query: id %d object %d lo %g",
							id, v.ID, v.Object(r), v.Rects.Lo[1][r])
						e.end(pin)
						return
					}
				}
				e.end(pin)
			}
		}()
	}
	wg.Wait()
	close(stop)
	retirer.Wait()
	if e.views.Reused() == 0 {
		t.Error("the retirer never recycled a view")
	}
	e.mu.Lock()
	e.isClosed = true
	e.mu.Unlock()
	e.drain() // both pin counts are back at zero: returns at once
}

// TestMissPathAllocBudget: on a file-backed engine whose cache holds a
// twentieth of the pages of an 8-d tree (a query reads a hundred pages
// and more), a steady-state query allocates at most one object per page
// it misses. It allocates far less — the result's rectangles and the
// four objects every query hands its caller; what is pinned here is
// that views, flight records and stage state are all reused.
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
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
	queries := dataset.SampleQueries(pts, 32, 3)
	for _, coalesce := range []bool{false, true} {
		eng, err := New(tree, Config{DataDir: t.TempDir(), CachePages: tree.Store().Len() / 20, CoalesceFetches: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		run := func() {
			if _, _, err := eng.KNN(context.Background(), query.CRSS{}, queries[next%len(queries)], 10, query.Options{}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 8*len(queries); i++ {
			run()
		}
		const runs = 256
		before := eng.Stats()
		allocs := testing.AllocsPerRun(runs, run)
		d := eng.Stats().Sub(before)
		pages, decodes := float64(d.PagesFetched)/(runs+1), float64(d.Decodes)/(runs+1)
		if decodes < pages/2 {
			t.Fatalf("coalesce=%v: %.1f decodes for %.1f pages per query: not a miss-path workload", coalesce, decodes, pages)
		}
		if allocs > decodes {
			t.Errorf("coalesce=%v: %.1f allocations per query for %.1f page misses", coalesce, allocs, decodes)
		}
		t.Logf("coalesce=%v: %.1f allocations, %.1f pages, %.1f decodes per query", coalesce, allocs, pages, decodes)
		eng.Close()
	}
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
