package exec

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/simarray"
)

// TestTraceSchemaAcrossDrivers is the cross-driver observability gate:
// one query emits the identical core event sequence (QueryStart, per
// stage StageIssue/FetchIssue×B/FetchDone×B/StageDone, QueryEnd) under
// the immediate Driver, the system simulator and the concurrent
// engine — only the timing fields may differ.
func TestTraceSchemaAcrossDrivers(t *testing.T) {
	tree, pts := buildTree(t, 2500, 4, false, 0)
	queries := dataset.SampleQueries(pts, 5, 17)
	drv := query.Driver{Tree: tree}
	eng, err := New(tree, Config{WorkersPerDisk: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, alg := range []query.Algorithm{query.CRSS{}, query.BBSS{}, query.FPSS{}} {
		for qi, q := range queries {
			var drvCol, simCol, engCol obs.Collector
			drvOpts, simOpts := pinnedDir(tree), pinnedDir(tree)
			drvOpts.Observer, simOpts.Observer = &drvCol, &simCol
			drv.Run(alg, q, 8, drvOpts)

			sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(simarray.Workload{
				Algorithm: alg, K: 8, Queries: []geom.Point{q},
				Options: simOpts,
			}); err != nil {
				t.Fatal(err)
			}

			if _, _, err := eng.KNN(context.Background(), alg, q, 8, query.Options{Observer: &engCol}); err != nil {
				t.Fatal(err)
			}

			label := fmt.Sprintf("%s q%d", alg.Name(), qi)
			want := drvCol.CoreSchema()
			if len(want) == 0 {
				t.Fatalf("%s: driver emitted no events", label)
			}
			checkTrace(t, label, want)
			for name, got := range map[string][]obs.Event{
				"simulator": simCol.CoreSchema(),
				"engine":    engCol.CoreSchema(),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s: %s emitted %d core events, driver %d",
						label, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s event %d = %+v, driver %+v",
							label, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// checkTrace asserts the core-schema well-formedness invariants of one
// query's event sequence.
func checkTrace(t *testing.T, label string, evs []obs.Event) {
	t.Helper()
	if evs[0].Type != obs.QueryStart || evs[len(evs)-1].Type != obs.QueryEnd {
		t.Fatalf("%s: trace not bracketed by QueryStart/QueryEnd", label)
	}
	stage := 0
	for i := 1; i < len(evs)-1; {
		issue := evs[i]
		if issue.Type != obs.StageIssue || issue.Stage != stage {
			t.Fatalf("%s: event %d = %+v, want StageIssue stage %d", label, i, issue, stage)
		}
		i++
		for _, typ := range []obs.EventType{obs.FetchIssue, obs.FetchDone} {
			for b := 0; b < issue.Batch; b, i = b+1, i+1 {
				if evs[i].Type != typ || evs[i].Stage != stage {
					t.Fatalf("%s: event %d = %+v, want %v stage %d", label, i, evs[i], typ, stage)
				}
			}
		}
		if evs[i].Type != obs.StageDone || evs[i].Batch != issue.Batch {
			t.Fatalf("%s: event %d = %+v, want StageDone batch %d", label, i, evs[i], issue.Batch)
		}
		i++
		stage++
	}
	if stage == 0 {
		t.Fatalf("%s: trace has no stages", label)
	}
}

// TestObservedConcurrentSharedCache runs concurrent clients against a
// shared engine with a shared query-level buffer pool, checking the
// observability accounting closes: the query-latency histogram counts
// exactly Stats.Queries and the per-disk Served gauges sum to
// PagesFetched. Under -race this is also the obs-layer race gate.
func TestObservedConcurrentSharedCache(t *testing.T) {
	tree, pts := buildTree(t, 3000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 32, 21)
	eng, err := New(tree, Config{WorkersPerDisk: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pool := bufferpool.NewSharded[rtree.PageID, struct{}](512, 1, func(rtree.PageID) uint64 { return 0 })
	var col obs.Collector
	clients, perClient := 6, 20
	if testing.Short() {
		clients, perClient = 4, 8
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c*perClient+i)%len(queries)]
				opts := query.Options{SharedCache: pool, Observer: &col}
				if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, opts); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := eng.Stats()
	if want := uint64(clients * perClient); st.Queries != want {
		t.Fatalf("Queries = %d, want %d", st.Queries, want)
	}
	if got := eng.queryLat.Count(); got != st.Queries {
		t.Errorf("query histogram count = %d, Stats.Queries = %d", got, st.Queries)
	}
	var served uint64
	for d := range eng.gauges {
		served += eng.gauges[d].Served.Load()
	}
	if served != st.PagesFetched {
		t.Errorf("sum of per-disk Served = %d, PagesFetched = %d", served, st.PagesFetched)
	}
	if eng.fetchLat.Count() != st.PagesFetched {
		t.Errorf("fetch histogram count = %d, PagesFetched = %d", eng.fetchLat.Count(), st.PagesFetched)
	}

	// The trace stream stays consistent under interleaving: every query
	// opened, closed, and resolved every fetch it issued.
	var starts, ends, issued, done uint64
	for _, e := range col.Events() {
		switch e.Type {
		case obs.QueryStart:
			starts++
		case obs.QueryEnd:
			ends++
		case obs.FetchIssue:
			issued++
		case obs.FetchDone:
			done++
		}
	}
	if starts != st.Queries || ends != st.Queries {
		t.Errorf("trace has %d starts / %d ends, want %d", starts, ends, st.Queries)
	}
	if issued != done {
		t.Errorf("trace has %d FetchIssue vs %d FetchDone", issued, done)
	}
}

// TestWorkerAbandonsCancelledJob injects a fetch job whose context is
// already cancelled straight into a disk queue: the worker must deliver
// the context error without decoding the page, counting the job under
// the cancellation telemetry only.
func TestWorkerAbandonsCancelledJob(t *testing.T) {
	tree, _ := buildTree(t, 500, 2, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := newStageScratch()
	sc.reset(1)
	eng.sem <- struct{}{}
	eng.gauges[0].Queued.Add(1)
	// The page id never matters: the worker must notice the dead
	// context before touching the disk store.
	eng.queues[0] <- fetchJob{page: rtree.PageID(1), idx: 0, ctx: ctx, sc: sc, submitted: time.Now()}
	sc.wait(1)
	res := sc.results[0]

	if res.err != context.Canceled {
		t.Fatalf("result err = %v, want context.Canceled", res.err)
	}
	if res.node != nil {
		t.Fatal("worker decoded a node for a cancelled job")
	}
	after := eng.Stats()
	if after.Decodes != before.Decodes {
		t.Errorf("Decodes moved %d -> %d for a cancelled job", before.Decodes, after.Decodes)
	}
	if after.PagesFetched != before.PagesFetched {
		t.Errorf("PagesFetched moved %d -> %d for a cancelled job", before.PagesFetched, after.PagesFetched)
	}
	if after.FetchesCancelled != before.FetchesCancelled+1 {
		t.Errorf("FetchesCancelled = %d, want %d", after.FetchesCancelled, before.FetchesCancelled+1)
	}
	if got := eng.gauges[0].Cancelled.Load(); got != 1 {
		t.Errorf("disk 0 Cancelled gauge = %d, want 1", got)
	}
	if got := eng.gauges[0].Served.Load(); got != 0 {
		t.Errorf("disk 0 Served gauge = %d, want 0", got)
	}
}

// TestCancelledQueryNeverDecodes: a query whose context is cancelled
// before it starts must not decode a single page, whichever point of
// the submit path the cancellation is noticed at.
func TestCancelledQueryNeverDecodes(t *testing.T) {
	tree, pts := buildTree(t, 1500, 3, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if _, _, err := eng.KNN(ctx, query.CRSS{}, pts[i], 10, query.Options{}); err != context.Canceled {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
	}
	st := eng.Stats()
	if st.Decodes != 0 {
		t.Errorf("cancelled queries decoded %d pages", st.Decodes)
	}
	if st.PagesFetched != 0 {
		t.Errorf("cancelled queries fetched %d pages", st.PagesFetched)
	}
	if st.Cancelled != 20 {
		t.Errorf("Cancelled = %d, want 20", st.Cancelled)
	}
}

// TestSnapshotSub drives two query waves and checks the interval diff:
// counters and histogram counts reflect exactly the second wave, and
// the per-disk serve counts rebalance into the interval's ratio.
func TestSnapshotSub(t *testing.T) {
	tree, pts := buildTree(t, 2000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 12, 31)
	eng, err := New(tree, Config{CachePages: 8}) // framed: decoded pages live in frames
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	run := func(qs []geom.Point) {
		for _, q := range qs {
			if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(queries[:4])
	s1 := eng.Snapshot()
	run(queries[4:])
	s2 := eng.Snapshot()
	d := s2.Sub(s1)

	if d.Stats.Queries != 8 {
		t.Fatalf("interval Queries = %d, want 8", d.Stats.Queries)
	}
	if d.QueryLatency.Count != 8 {
		t.Errorf("interval query histogram count = %d, want 8", d.QueryLatency.Count)
	}
	var served uint64
	for _, disk := range d.Disks {
		served += disk.Served
	}
	if served != d.Stats.PagesFetched {
		t.Errorf("interval Served sum = %d, PagesFetched = %d", served, d.Stats.PagesFetched)
	}
	if d.BalanceRatio < 1 {
		t.Errorf("interval balance ratio = %g, want >= 1", d.BalanceRatio)
	}
	// Every decode drew its view from the pool: a frame made or one
	// handed out again.
	if d.Views.Made+d.Views.Reused != d.Stats.Decodes || d.Views.Reused == 0 || d.Views.Idle != s2.Views.Idle {
		t.Errorf("interval views %+v (at the end %+v) for %d decodes", d.Views, s2.Views, d.Stats.Decodes)
	}
	if s2.Stats.Queries != 12 || s1.Stats.Queries != 4 {
		t.Errorf("cumulative snapshots: %d after wave 1, %d after wave 2",
			s1.Stats.Queries, s2.Stats.Queries)
	}
	if p := d.QueryLatency.P95(); p <= 0 {
		t.Errorf("interval query p95 = %g, want > 0", p)
	}
}

// TestPublishExpvar checks the /debug/vars contract: the published
// variable renders as JSON carrying the live snapshot plus pre-derived
// headline percentiles.
func TestPublishExpvar(t *testing.T) {
	tree, pts := buildTree(t, 1000, 3, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range dataset.SampleQueries(pts, 5, 41) {
		if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	// expvar.Publish panics on duplicate names; a test-scoped unique
	// name keeps reruns within one process safe.
	const name = "engine-test-publish-expvar"
	eng.PublishExpvar(name)
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("variable not published")
	}
	var view struct {
		Stats        Stats
		BalanceRatio float64
		QueryP50     float64
		QueryP99     float64
		Disks        []obs.DiskSnapshot
	}
	if err := json.Unmarshal([]byte(v.String()), &view); err != nil {
		t.Fatalf("published value is not JSON: %v", err)
	}
	if !reflect.DeepEqual(view.Stats, eng.Stats()) {
		t.Errorf("published stats %+v, live %+v", view.Stats, eng.Stats())
	}
	if view.Stats.Queries != 5 {
		t.Errorf("published Queries = %d, want 5", view.Stats.Queries)
	}
	if view.QueryP50 <= 0 || view.QueryP99 < view.QueryP50 {
		t.Errorf("published percentiles p50=%g p99=%g", view.QueryP50, view.QueryP99)
	}
	if len(view.Disks) != 3 {
		t.Errorf("published %d disk snapshots, want 3", len(view.Disks))
	}
}
