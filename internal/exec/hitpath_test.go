package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rtree"
)

// These tests pin the contract of the engine's hit path: a page
// resident in the decoded-page cache is served on the querying
// goroutine, and nothing an outside observer can read — results,
// per-query stats, engine counters, gauges, typed errors — tells that
// apart from a disk worker having answered.

// TestCachedEngineMatchesDriver: with a cache that holds the whole
// tree, every algorithm returns the Driver's neighbors and the Driver's
// per-query stats bit for bit, on the cold pass (every page through a
// worker) and on the warm pass (every page inline).
func TestCachedEngineMatchesDriver(t *testing.T) {
	tree, pts := buildTree(t, 4000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 30, 3)
	drv := query.Driver{Tree: tree}
	pages := tree.Store().Len()
	for _, coalesce := range []bool{false, true} {
		eng, err := New(tree, Config{CachePages: 2 * pages, CoalesceFetches: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			before := eng.Stats()
			for _, alg := range []query.Algorithm{query.CRSS{}, query.BBSS{}, query.FPSS{}, query.BFSS{}} {
				for qi, q := range queries {
					want, wantStats := drv.Run(alg, q, 10, query.Options{})
					got, gotStats, err := eng.KNN(context.Background(), alg, q, 10, query.Options{})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s q%d %s coalesce=%v", alg.Name(), qi, pass, coalesce)
					sameNeighbors(t, label, want, got)
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Fatalf("%s: stats %+v, driver %+v", label, gotStats, wantStats)
					}
				}
			}
			d := eng.Stats().Sub(before)
			if pass == "cold" && d.Decodes == 0 {
				t.Fatal("cold pass decoded nothing: the test exercised no worker read")
			}
			if pass == "warm" && d.Decodes != 0 {
				t.Fatalf("warm pass decoded %d pages of a fully cached tree", d.Decodes)
			}
		}
		if got := eng.Stats().Decodes; got > uint64(pages) {
			t.Errorf("decoded %d pages of a %d-page tree whose cache never evicts", got, pages)
		}
		eng.Close()
	}
}

// TestWarmCachedEngineAllocBudget: a query over decoded pages that are
// all resident allocates what the sequential driver's does — the
// execution, its per-disk counters, the best list and the results. The
// entry-major rectangles the results carry were gathered once per page
// while the cache warmed up, not per query. Such an engine evicts
// nothing, so it builds no pool of frames and counts no holds.
func TestWarmCachedEngineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const budget = 4
	tree, pts := buildTree(t, 4000, 5, false, 0)
	q := dataset.SampleQueries(pts, 1, 3)[0]
	for _, dataDir := range []string{"", t.TempDir()} {
		eng, err := New(tree, Config{CachePages: 2 * tree.Store().Len(), DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		if eng.views != nil {
			t.Errorf("file=%v: an engine whose cache holds the tree built a view pool", dataDir != "")
		}
		for _, alg := range []query.Algorithm{query.BBSS{}, query.FPSS{}, query.CRSS{}} {
			run := func() {
				if _, _, err := eng.KNN(context.Background(), alg, q, 10, query.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if got := testing.AllocsPerRun(200, run); got > budget {
				t.Errorf("file=%v %s: %.1f allocations per warm cached query, budget %d",
					dataDir != "", alg.Name(), got, budget)
			}
		}
		if vs := eng.Snapshot().Views; vs != (rtree.ViewStats{}) {
			t.Errorf("file=%v: frame counts %+v on an engine that recycles nothing", dataDir != "", vs)
		}
		eng.Close()
	}
}

// TestHitPathAccounting drives concurrent clients through caches that
// hold everything and nearly nothing, with and without coalescing, and
// checks the books at rest: every page request that was not coalesced
// counted exactly one cache hit or one cache miss, every delivered page
// counted once under PagesFetched, its disk's Served gauge and the
// fetch-latency histogram, and no disk reports a backlog. On the fully
// cached engine a further warm wave decodes nothing.
func TestHitPathAccounting(t *testing.T) {
	tree, pts := buildTree(t, 3000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 48, 19)
	pages := tree.Store().Len()
	clients, perClient := 6, 24
	if testing.Short() {
		clients, perClient = 4, 8
	}
	for _, tc := range []struct {
		name     string
		cache    int
		coalesce bool
	}{
		{"whole tree", 2 * pages, false},
		{"whole tree coalesced", 2 * pages, true},
		{"tiny cache", 8, false},
		{"tiny cache coalesced", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tree, Config{CachePages: tc.cache, CoalesceFetches: tc.coalesce, WorkersPerDisk: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			// wave runs the clients and returns the pages the queries were
			// delivered (no CachedLevels, so every visited node is a fetch).
			wave := func() uint64 {
				var wg sync.WaitGroup
				delivered := make([]uint64, clients)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; i < perClient; i++ {
							q := queries[(c*perClient+i)%len(queries)]
							_, st, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
							if err != nil {
								t.Errorf("client %d: %v", c, err)
								return
							}
							delivered[c] += uint64(st.NodesVisited)
						}
					}(c)
				}
				wg.Wait()
				var sum uint64
				for _, d := range delivered {
					sum += d
				}
				return sum
			}
			check := func(label string, s Snapshot, delivered uint64) {
				t.Helper()
				if got := s.Cache.Hits + s.Cache.Misses; got != s.Stats.PagesFetched {
					t.Errorf("%s: cache hits %d + misses %d = %d, PagesFetched = %d",
						label, s.Cache.Hits, s.Cache.Misses, got, s.Stats.PagesFetched)
				}
				if got := s.Stats.PagesFetched + s.Stats.FetchesCoalesced; got != delivered {
					t.Errorf("%s: PagesFetched %d + FetchesCoalesced %d = %d, queries were delivered %d pages",
						label, s.Stats.PagesFetched, s.Stats.FetchesCoalesced, got, delivered)
				}
				var served uint64
				for _, d := range s.Disks {
					served += d.Served
					if d.Queued != 0 || d.InFlight != 0 {
						t.Errorf("%s: idle engine reports queued %d, in flight %d on a disk", label, d.Queued, d.InFlight)
					}
				}
				if served != s.Stats.PagesFetched {
					t.Errorf("%s: disks served %d pages, PagesFetched = %d", label, served, s.Stats.PagesFetched)
				}
				if s.FetchLatency.Count != s.Stats.PagesFetched {
					t.Errorf("%s: fetch histogram holds %d observations, PagesFetched = %d",
						label, s.FetchLatency.Count, s.Stats.PagesFetched)
				}
				// One decode per cache fill; a miss that found another
				// worker mid-fetch shares that worker's decode.
				if s.Stats.Decodes > s.Cache.Misses {
					t.Errorf("%s: %d decodes for %d cache misses", label, s.Stats.Decodes, s.Cache.Misses)
				}
				for d, depth := range eng.QueueDepths() {
					if depth != 0 {
						t.Errorf("%s: QueueDepths()[%d] = %d on an idle engine", label, d, depth)
					}
				}
			}

			delivered := wave()
			first := eng.Snapshot()
			check("first wave", first, delivered)
			if !tc.coalesce && first.Stats.FetchesCoalesced != 0 {
				t.Errorf("FetchesCoalesced = %d with coalescing off", first.Stats.FetchesCoalesced)
			}

			delivered = wave()
			second := eng.Snapshot().Sub(first)
			check("second wave", second, delivered)
			if tc.cache >= pages {
				if second.Stats.Decodes != 0 || second.Cache.Misses != 0 || second.Stats.FetchesCoalesced != 0 {
					t.Errorf("warm wave on a fully cached tree: %d decodes, %d misses, %d coalesced",
						second.Stats.Decodes, second.Cache.Misses, second.Stats.FetchesCoalesced)
				}
				if second.Cache.Hits != delivered {
					t.Errorf("warm wave: %d cache hits for %d delivered pages", second.Cache.Hits, delivered)
				}
				if second.SemWait.Sum != 0 {
					t.Errorf("warm wave waited %gs for in-flight slots it never needs", second.SemWait.Sum)
				}
			}
		})
	}
}

// TestHitPathTypedErrors: a query that would be answered entirely from
// the cache still fails with the typed error when its context is
// already cancelled or the engine is closed, fetches nothing, and
// leaves a well-formed trace.
func TestHitPathTypedErrors(t *testing.T) {
	tree, pts := buildTree(t, 1500, 3, false, 0)
	eng, err := New(tree, Config{CachePages: 2 * tree.Store().Len()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := pts[0]
	for i := 0; i < 2; i++ { // the second run is all hits
		if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	warm := eng.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col obs.Collector
	if _, _, err := eng.KNN(ctx, query.CRSS{}, q, 10, query.Options{Observer: &col}); err != context.Canceled {
		t.Fatalf("cancelled context on a cached tree: err = %v, want context.Canceled", err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, _, err := eng.KNN(expired, query.CRSS{}, q, 10, query.Options{}); err != context.DeadlineExceeded {
		t.Fatalf("expired context on a cached tree: err = %v, want context.DeadlineExceeded", err)
	}
	d := eng.Snapshot().Sub(warm)
	if d.Stats.PagesFetched != 0 || d.Cache.Hits != 0 || d.Stats.Cancelled != 2 {
		t.Errorf("dead queries fetched %d pages (%d cache hits), Cancelled = %d, want 0, 0, 2",
			d.Stats.PagesFetched, d.Cache.Hits, d.Stats.Cancelled)
	}
	var issues, dones, fetched int
	for _, e := range col.Events() {
		switch e.Type {
		case obs.StageIssue:
			issues++
		case obs.StageDone:
			dones++
		case obs.FetchDone:
			fetched++
		}
	}
	if issues != 1 || dones != 1 || fetched != 0 {
		t.Errorf("cancelled query's trace: %d StageIssue, %d StageDone, %d FetchDone, want 1, 1, 0", issues, dones, fetched)
	}

	// The engine still answers, from the cache.
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{}); err != nil {
		t.Fatal(err)
	}

	// A stage of a query that was admitted before Close sees the close
	// signal even though the cache could serve it.
	root := tree.Root()
	pl, _ := tree.Placement(root)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.fetchBatch(context.Background(), 0, []query.PageRequest{{Page: root, Disk: pl.Disk, Pages: 1}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("cached stage on a closed engine: err = %v, want ErrClosed", err)
	}
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("KNN on a closed engine: err = %v, want ErrClosed", err)
	}
}

// TestCoalescedColdPageOneDecode races two stages on one cold page
// with coalescing on and the read slowed so they overlap: the page is
// decoded once, the second request is coalesced, both get the node, the
// cache counts one miss — and while the flight is open no goroutine
// exists beyond the two callers and the engine's workers: the worker
// that serves the flight resolves it.
func TestCoalescedColdPageOneDecode(t *testing.T) {
	tree, _ := buildTree(t, 400, 3, false, 0)
	root := tree.Root()
	pl, ok := tree.Placement(root)
	if !ok {
		t.Fatal("root unplaced")
	}
	inj := fault.NewInjector(3)
	inj.Set(pl.Disk, fault.Faults{SpikeProb: 1, SpikeDelay: 50 * time.Millisecond})
	eng, err := New(tree, Config{CoalesceFetches: true, CachePages: 64, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := runtime.NumGoroutine()

	req := []query.PageRequest{{Page: root, Disk: pl.Disk, Pages: 1}}
	done := make(chan error, 2)
	fetch := func() {
		nodes, err := eng.fetchBatch(context.Background(), 0, req, nil)
		if err == nil && (len(nodes) != 1 || nodes[0] == nil || nodes[0].ID != root) {
			err = fmt.Errorf("wrong node delivered: %+v", nodes)
		}
		done <- err
	}
	sh := eng.co.shardOf(root)
	go fetch()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		_, open := sh.flights[root]
		sh.mu.Unlock()
		if open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader never opened a flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	go fetch()
	waitForWaiter(t, sh, root)
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("%d goroutines with one flight open, want at most %d (workers + the two callers)", n, base+2)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a racing stage hung")
		}
	}

	s := eng.Snapshot()
	if s.Stats.Decodes != 1 || s.Stats.FetchesCoalesced != 1 || s.Stats.PagesFetched != 1 {
		t.Errorf("Decodes = %d, FetchesCoalesced = %d, PagesFetched = %d, want 1, 1, 1",
			s.Stats.Decodes, s.Stats.FetchesCoalesced, s.Stats.PagesFetched)
	}
	if s.Cache.Misses != 1 || s.Cache.Hits != 0 {
		t.Errorf("cache counted %d misses and %d hits for one led and one joined request, want 1 and 0",
			s.Cache.Misses, s.Cache.Hits)
	}
	sh.mu.Lock()
	open := len(sh.flights)
	sh.mu.Unlock()
	if open != 0 {
		t.Errorf("%d flights still open after both stages returned", open)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the race, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}

	// The page is resident now: a third request is an inline hit.
	if _, err := eng.fetchBatch(context.Background(), 0, req, nil); err != nil {
		t.Fatal(err)
	}
	if s := eng.Snapshot(); s.Stats.Decodes != 1 || s.Cache.Hits != 1 || s.Stats.PagesFetched != 2 {
		t.Errorf("after a third, cached request: Decodes = %d, cache hits = %d, PagesFetched = %d, want 1, 1, 2",
			s.Stats.Decodes, s.Cache.Hits, s.Stats.PagesFetched)
	}
}
