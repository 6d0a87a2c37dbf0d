package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/bufferpool"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
)

// The traced run replays a fixed sample from one client, so its counts
// repeat exactly for a seed. Everything is timed from outside the
// layers: spans around calls into their public functions, the
// observer's events for what happens inside Engine.KNN, and probes of
// the layers below exec on exactly the pages the sample touched.

type traceKey struct{}

// traceCtx tells a traced callee which span caused it.
type traceCtx struct{ parent, query int }

func withTrace(ctx context.Context, parent, query int) context.Context {
	return context.WithValue(ctx, traceKey{}, traceCtx{parent, query})
}

// recorder keeps a query's observer events with their arrival times.
// Events of one query arrive from one goroutine, so it needs no lock.
type recorder struct {
	col obs.Collector
	at  []time.Time
}

func (r *recorder) Observe(e obs.Event) {
	r.at = append(r.at, time.Now())
	r.col.Observe(e)
}

type pageRef struct {
	id   rtree.PageID
	disk int
}

// queryTrace is what the observer saw of one engine query.
type queryTrace struct {
	hit     map[rtree.PageID]bool // per fetched page: served without a decode
	stages  int
	semWait time.Duration
}

// tracedBackend wraps the engine as a server.Backend: a span around
// Engine.KNN, the observer's stage events as its child spans.
type tracedBackend struct {
	eng *exec.Engine
	tr  *tracer

	mu     sync.Mutex
	traces map[int]*queryTrace // by query id; guarded by mu
}

func (b *tracedBackend) QueueDepths() []int64 { return b.eng.QueueDepths() }

func (b *tracedBackend) KNN(ctx context.Context, alg query.Algorithm, q geom.Point, k int, opts query.Options) ([]query.Neighbor, *query.Stats, error) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok {
		tc = traceCtx{-1, -1}
	}
	rec := &recorder{}
	opts.Observer = rec
	id := b.tr.open("exec.knn", tc.parent, tc.query)
	ns, st, err := b.eng.KNN(ctx, alg, q, k, opts)
	b.tr.close(id)

	qt := &queryTrace{hit: map[rtree.PageID]bool{}}
	for i, e := range rec.col.Events() {
		switch e.Type {
		case obs.FetchDone:
			qt.hit[rtree.PageID(e.Page)] = e.CacheHit
		case obs.SemWait:
			qt.semWait += e.Wall
		case obs.StageDone:
			qt.stages++
			b.tr.add("exec.stage", id, tc.query, rec.at[i].Add(-e.Wall), rec.at[i])
		}
	}
	b.mu.Lock()
	b.traces[tc.query] = qt
	b.mu.Unlock()
	return ns, st, err
}

func (b *tracedBackend) trace(query int) *queryTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traces[query]
}

// tracedHandler wraps Server.Handler(): a span around ServeHTTP, child
// of the client's round trip that is open at the time (one client, one
// request in flight).
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	cur   *atomic.Int64 // id of the open client.roundtrip span
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int(h.cur.Load())
	q := h.tr.queryOf(parent)
	id := h.tr.open("server.handler", parent, q)
	h.inner.ServeHTTP(w, r.WithContext(withTrace(r.Context(), id, q)))
	h.tr.close(id)
}

// runTraced produces a workload's per-layer metrics.
func runTraced(ctx context.Context, w workload, opt options) (*runResult, error) {
	tr := newTracer()
	res := newResult(w, true)
	batches := min(tracedIngestBatches, opt.ingestBatches())
	in, err := newInputs(w, opt.seed, batches)
	if err != nil {
		return nil, err
	}
	sys, err := setUp(w, in, opt.outDir, tr)
	if err != nil {
		return nil, err
	}
	if w.ingest {
		err = traceIngest(sys, opt, tr, res)
	} else {
		err = traceReads(ctx, sys, opt, tr, res)
	}
	if err := errors.Join(err, sys.close()); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	inserts := byName(spans, "rtree.insert", span.duration)
	res.setN("rtree.insert_us", medianMicros(inserts), "us", len(inserts))
	if err := writeSpans(filepath.Join(opt.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// replaySize is how many queries the traced run replays.
func replaySize(opt options, in inputs) int {
	n := tracedReplayQueries
	if opt.smoke {
		n = 128
	}
	return min(n, len(in.queries))
}

func traceReads(ctx context.Context, sys *system, opt options, tr *tracer, res *runResult) error {
	w, in, eng := sys.w, sys.in, sys.engine
	alg, err := query.AlgorithmByName(algorithm)
	if err != nil {
		return err
	}
	n := replaySize(opt, in)
	direct := func(qi int) error {
		_, _, err := eng.KNN(ctx, alg, in.queries[qi], knnK, query.Options{})
		return err
	}

	// Pass 1 fills the cache; pass 2 times Engine.KNN with tracing off.
	for qi := 0; qi < n; qi++ {
		if err := direct(qi); err != nil {
			return err
		}
	}
	untraced := make([]time.Duration, n)
	for qi := 0; qi < n; qi++ {
		start := time.Now()
		if err := direct(qi); err != nil {
			return err
		}
		untraced[qi] = time.Since(start)
	}

	// Pass 3 is the traced replay, through the workload's own front.
	backend := &tracedBackend{eng: eng, tr: tr, traces: map[int]*queryTrace{}}
	call := func(ctx context.Context, qi int, _ bool) (reply, error) {
		ns, _, err := backend.KNN(withTrace(ctx, -1, qi), alg, in.queries[qi], knnK, query.Options{})
		return reply{query: qi, ns: ns}, err
	}
	var hc *httpCaller
	var cur atomic.Int64
	if w.http {
		srv, err := server.New(serverConfig(backend))
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{
			Handler:           &tracedHandler{inner: srv.Handler(), tr: tr, cur: &cur},
			ReadHeaderTimeout: 5 * time.Second,
		}
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		defer func() {
			hs.Close()
			<-served
		}()
		hc, err = newHTTPCaller(ln.Addr().String(), in.queries[:n])
		if err != nil {
			return err
		}
		defer hc.close()
		post := hc.caller(true)
		call = func(ctx context.Context, qi int, keep bool) (reply, error) {
			rt := tr.open("client.roundtrip", -1, qi)
			cur.Store(int64(rt))
			r, err := post(ctx, qi, keep)
			tr.close(rt)
			return r, err
		}
	}
	before := eng.Snapshot()
	var kept []reply
	failed := 0
	for qi := 0; qi < n; qi++ {
		keep := qi%verifyEvery == 0
		r, err := call(ctx, qi, keep)
		if err != nil {
			failed++
			res.notef("query %d: %v", qi, err)
			continue
		}
		if keep {
			kept = append(kept, r)
		}
	}
	delta := eng.Snapshot().Sub(before)
	wrong := countWrong(in, kept)
	res.Attempted, res.Failed = n, failed+wrong
	res.notef("%d of %d traced replies checked against brute force, %d wrong", len(kept), n, wrong)
	if failed > 0 {
		return nil // the ledger below needs every query's trace
	}

	// Pass 4 replays the sample from all clients at once: what only
	// concurrency shows (coalescing, queue depth).
	loaded, depthMax, err := loadedPass(eng, direct, n)
	if err != nil {
		return err
	}

	probes, err := probeLayers(sys.tree, in.queries[:n], tr)
	if err != nil {
		return err
	}
	costs, err := probePages(sys.tree, w, sys.dir, in.queries, probes, tr)
	if err != nil {
		return err
	}
	hitNS := probeCacheHit(w, sys.tree, probes)

	// Per-query ledger.
	spans := tr.snapshot()
	self := selfTimes(spans)
	root := "exec.knn"
	if w.http {
		root = "client.roundtrip"
	}
	var knn, rootDur, knnSelf []time.Duration
	for _, s := range spans {
		if s.Name == "exec.knn" {
			knn = append(knn, s.duration())
			knnSelf = append(knnSelf, self[s.ID])
		}
		if s.Name == root {
			rootDur = append(rootDur, s.duration())
		}
	}
	execSelf := make([]float64, n)
	unattributed := make([]float64, n)
	stagesPerQuery, semWait := 0, make([]float64, n)
	for qi := 0; qi < n; qi++ {
		qt := backend.trace(qi)
		storage := time.Duration(0)
		for _, p := range probes.pages[qi] {
			if qt.hit[p.id] {
				storage += hitNS
			} else {
				storage += costs[p.id].read + costs[p.id].decode
			}
		}
		execSelf[qi] = micros(knn[qi] - probes.driver[qi] - storage)
		unattributed[qi] = micros(knnSelf[qi] - probes.driver[qi])
		stagesPerQuery += qt.stages
		semWait[qi] = micros(qt.semWait)
	}
	fn := float64(n)
	selfOf := func(s span) time.Duration { return self[s.ID] }

	if w.http {
		res.setN("server.handler_us", medianMicros(byName(spans, "server.handler", span.duration)), "us", n)
		res.setN("server.self_us", medianMicros(byName(spans, "server.handler", selfOf)), "us", n)
		res.setN("server.net_us", medianMicros(byName(spans, "client.roundtrip", selfOf)), "us", n)
		res.setN("server.resp_bytes", median(hc.respBytes), "B", len(hc.respBytes))
		res.set("server.shed_pct", 100*float64(hc.shed)/fn, "%")
	}
	tracedKNN := medianMicros(knn)
	untracedKNN := medianMicros(untraced)
	res.setN("exec.knn_us", tracedKNN, "us", n)
	res.setN("exec.self_us", median(execSelf), "us", n)
	stages := byName(spans, "exec.stage", span.duration)
	res.setN("exec.stage_us", medianMicros(stages), "us", len(stages))
	res.set("exec.stages_per_query", float64(stagesPerQuery)/fn, "count")
	res.set("exec.pages_per_query", float64(delta.Stats.PagesFetched)/fn, "count")
	res.setN("exec.sem_wait_us", median(semWait), "us", n)
	res.set("exec.coalesced_pct", 100*float64(loaded.FetchesCoalesced)/
		float64(max(1, loaded.FetchesCoalesced+loaded.PagesFetched)), "%")
	res.set("exec.balance_ratio", delta.BalanceRatio, "ratio")
	res.set("exec.queue_depth_max", float64(depthMax), "count")
	res.set("exec.new_ms", millis(sys.engineNew), "ms")
	res.set("bufferpool.hit_pct", 100*float64(delta.Cache.Hits)/float64(max(1, delta.Cache.Hits+delta.Cache.Misses)), "%")
	res.set("bufferpool.hit_ns", float64(hitNS.Nanoseconds()), "ns")
	res.set("bufferpool.evictions_per_query", float64(delta.Cache.Evictions)/fn, "count")
	res.set("pagestore.reads_per_query", float64(delta.Stats.Decodes)/fn, "count")
	probes.report(res, sys.tree, costs, w.file)
	res.set("obs.trace_overhead_pct", 100*(tracedKNN-untracedKNN)/untracedKNN, "%")
	res.set("ledger.unattributed_pct", 100*median(unattributed)/medianMicros(rootDur), "%")

	tc := sys.tree.Config()
	if model, err := analytic.ModelTree(len(in.points), w.dim, tc.MaxEntries, 0); err == nil {
		res.notef("analytic cross-check: ModelTree(%d, %d, %d).ExpectedNodeAccesses(%d) = %.1f beside measured query.nodes_per_query = %.1f (uniform-data model, not gated)",
			len(in.points), w.dim, tc.MaxEntries, knnK, model.ExpectedNodeAccesses(knnK), probes.nodes)
	}
	return nil
}

// loadedPass replays the first n queries split over all clients, with a
// sampler polling the queue depths, and returns the engine's counter
// deltas and the deepest queue seen.
func loadedPass(eng *exec.Engine, direct func(qi int) error, n int) (exec.Stats, int64, error) {
	before := eng.Stats()
	done := make(chan struct{})
	var depthMax int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, d := range eng.QueueDepths() {
				depthMax = max(depthMax, d)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < n && errs[c] == nil; qi += clients {
				errs[c] = direct(qi)
			}
		}(c)
	}
	wg.Wait()
	close(done)
	sampler.Wait()
	return eng.Stats().Sub(before), depthMax, errors.Join(errs...)
}

// layerProbes are the probes of the layers below exec, on the replayed
// queries: the sequential driver on the same tree, and which pages each
// query touches.
type layerProbes struct {
	driver []time.Duration // query.Driver.Run per query, no observer
	pages  [][]pageRef     // per query, in request order
	nodes  float64         // mean pages delivered per query
	allocs float64         // mean allocations of Driver.Run
}

func probeLayers(tree *parallel.Tree, queries []geom.Point, tr *tracer) (*layerProbes, error) {
	alg, err := query.AlgorithmByName(algorithm)
	if err != nil {
		return nil, err
	}
	d := query.Driver{Tree: tree}
	p := &layerProbes{driver: make([]time.Duration, len(queries)), pages: make([][]pageRef, len(queries))}
	// First pass: the page lists, and the nodes' lazily built flat views.
	visited := 0
	for qi, q := range queries {
		var col obs.Collector
		_, st := d.Run(alg, q, knnK, query.Options{Observer: &col})
		visited += st.NodesVisited
		for _, e := range col.Events() {
			if e.Type == obs.FetchIssue {
				p.pages[qi] = append(p.pages[qi], pageRef{id: rtree.PageID(e.Page), disk: e.Disk})
			}
		}
	}
	p.nodes = float64(visited) / float64(len(queries))
	starts := make([]time.Time, len(queries))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for qi, q := range queries {
		starts[qi] = time.Now()
		d.Run(alg, q, knnK, query.Options{})
		p.driver[qi] = time.Since(starts[qi])
	}
	runtime.ReadMemStats(&after)
	p.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(queries))
	for qi, start := range starts {
		tr.add("query.driver", -1, qi, start, start.Add(p.driver[qi]))
	}
	return p, nil
}

// pageCost is what probing one page measured.
type pageCost struct {
	entries int
	read    time.Duration // FileStore.ReadImage (file-backed workloads only)
	decode  time.Duration // Codec.Decode, which builds the flat view too
	flat    time.Duration // rtree.BuildFlat alone
	kernel  time.Duration // the batch kernels CRSS runs on the node
}

// probeReps repeats each page probe: a single call is near the clock's
// resolution.
const probeReps = 8

// timeProbe runs f probeReps times as one span of query qi and returns
// the mean duration of a call.
func timeProbe(tr *tracer, name string, qi int, f func() error) (time.Duration, error) {
	start := time.Now()
	for r := 0; r < probeReps; r++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	d := time.Since(start) / probeReps
	tr.end(name, -1, qi, start)
	return d, nil
}

// probePages times the storage, node-layout and kernel work on every
// distinct page the probed queries touched. dataDir holds the engine's
// replica files when the workload is file-backed.
func probePages(tree *parallel.Tree, w workload, dataDir string, queries []geom.Point, probes *layerProbes, tr *tracer) (costs map[rtree.PageID]pageCost, err error) {
	tc := tree.Config()
	codec := pagestore.Codec{Dim: tc.Dim, PageSize: tc.PageSize, Spheres: tc.UseSpheres}
	files := map[int]*pagestore.FileStore{}
	defer func() {
		for _, fs := range files {
			err = errors.Join(err, fs.Close())
		}
	}()
	costs = map[rtree.PageID]pageCost{}
	out := make([]float64, tc.MaxEntries+1)
	for qi, refs := range probes.pages {
		for _, ref := range refs {
			if _, done := costs[ref.id]; done {
				continue
			}
			node := tree.Store().Get(ref.id)
			c := pageCost{entries: len(node.Entries)}
			img, err := codec.Encode(node)
			if err != nil {
				return nil, fmt.Errorf("probe page %d: %w", ref.id, err)
			}
			if w.file {
				fs := files[ref.disk]
				if fs == nil {
					fs, err = pagestore.OpenFileStore(filepath.Join(dataDir, exec.ReplicaFileName(ref.disk, 0)), codec, pagestore.FileStoreOptions{})
					if err != nil {
						return nil, err
					}
					files[ref.disk] = fs
				}
				c.read, err = timeProbe(tr, "pagestore.read", qi, func() (e error) {
					img, e = fs.ReadImage(ref.id)
					return e
				})
				if err != nil {
					return nil, err
				}
			}
			c.decode, err = timeProbe(tr, "pagestore.decode", qi, func() error {
				_, err := codec.Decode(img)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("probe page %d: %w", ref.id, err)
			}
			c.flat, _ = timeProbe(tr, "rtree.flat_build", qi, func() error {
				rtree.BuildFlat(node)
				return nil
			})
			flat, q, m := node.Flat(), queries[qi], len(node.Entries)
			c.kernel, _ = timeProbe(tr, "geom.kernels", qi, func() error {
				geom.MinDistSqBatch(q, &flat.Rects, out[:m])
				if !node.IsLeaf() {
					geom.MinMaxDistSqBatch(q, &flat.Rects, out[:m])
					geom.MaxDistSqBatch(q, &flat.Rects, out[:m])
				}
				return nil
			})
			costs[ref.id] = c
		}
	}
	return costs, nil
}

// probeCacheHit times a resident lookup in a pool of the workload's
// size and sharding (what the engine pays per cached page).
func probeCacheHit(w workload, tree *parallel.Tree, probes *layerProbes) time.Duration {
	const shards = 8 // exec.Config's default
	pool := bufferpool.NewSharded[rtree.PageID, *rtree.Node](w.cachePages, shards,
		func(id rtree.PageID) uint64 { return uint64(uint32(id)) * 0x9e3779b97f4a7c15 })
	var resident []rtree.PageID
	for _, refs := range probes.pages {
		for _, ref := range refs {
			if len(resident) < w.cachePages/2 {
				if _, ok := pool.Get(ref.id); !ok {
					pool.Put(ref.id, tree.Store().Get(ref.id))
					resident = append(resident, ref.id)
				}
			}
		}
	}
	// A shard may have evicted under a skewed hash: keep what stayed.
	kept := resident[:0]
	for _, id := range resident {
		if _, ok := pool.Get(id); ok {
			kept = append(kept, id)
		}
	}
	const rounds = 64
	miss := func() (*rtree.Node, error) { return nil, errors.New("probe: page not resident") }
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, id := range kept {
			pool.GetOrFetchHit(id, miss)
		}
	}
	return time.Since(start) / time.Duration(rounds*max(1, len(kept)))
}

// report sets the metrics of the layers below exec.
func (p *layerProbes) report(res *runResult, tree *parallel.Tree, costs map[rtree.PageID]pageCost, file bool) {
	n := len(p.driver)
	kernelPerQuery := make([]float64, n)
	querySelf := make([]float64, n)
	var kernelTotal time.Duration
	entries := 0
	for qi, refs := range p.pages {
		var k time.Duration
		for _, ref := range refs {
			k += costs[ref.id].kernel
			entries += costs[ref.id].entries
		}
		kernelTotal += k
		kernelPerQuery[qi] = micros(k)
		querySelf[qi] = micros(p.driver[qi] - k)
	}
	var read, decode, flat []float64
	for _, c := range costs {
		read = append(read, micros(c.read))
		decode = append(decode, micros(c.decode))
		flat = append(flat, micros(c.flat))
	}
	if file {
		res.setN("pagestore.read_us", median(read), "us", len(read))
	}
	res.setN("pagestore.decode_us", median(decode), "us", len(decode))
	res.setN("rtree.flat_build_us", median(flat), "us", len(flat))
	st := tree.ComputeStats()
	res.set("rtree.pages", float64(st.Nodes), "count")
	res.set("rtree.height", float64(st.Height), "count")
	res.setN("query.driver_us", medianMicros(p.driver), "us", n)
	res.setN("query.self_us", median(querySelf), "us", n)
	res.set("query.nodes_per_query", p.nodes, "count")
	res.set("query.allocs_per_query", p.allocs, "count")
	res.setN("geom.kernel_us_per_query", median(kernelPerQuery), "us", n)
	res.set("geom.kernel_ns_per_entry", float64(kernelTotal.Nanoseconds())/float64(max(1, entries)), "ns")
}

// traceIngest runs the (shortened) script with a span around every
// call, probes the read path on the tree it leaves, and reopens.
func traceIngest(sys *system, opt options, tr *tracer, res *runResult) error {
	root := tr.open("ingest.script", -1, -1)
	log, err := runScript(sys, sys.in.script, tr, root)
	tr.close(root)
	if err != nil {
		return err
	}
	tree := sys.index.Tree()
	queries := sys.in.queries[:replaySize(opt, sys.in)]
	probes, err := probeLayers(tree, queries, tr)
	if err != nil {
		return err
	}
	costs, err := probePages(tree, sys.w, sys.dir, queries, probes, tr)
	if err != nil {
		return err
	}
	probes.report(res, tree, costs, false)
	recoveries, checks, wrong, err := reopenAndVerify(sys, len(sys.in.script), 3, tr, -1)
	if err != nil {
		return err
	}
	res.Attempted = log.ops() + checks
	res.Failed = log.failed() + wrong
	res.notef("after reopen: %d checks, %d failed", checks, wrong)

	spans := tr.snapshot()
	self := selfTimes(spans)
	deletes := byName(spans, "rtree.delete", span.duration)
	res.setN("rtree.delete_us", medianMicros(deletes), "us", len(deletes))
	commits := byName(spans, "pagestore.commit", span.duration)
	ms := make([]float64, len(commits))
	for i, d := range commits {
		ms[i] = millis(d)
	}
	res.setLatency("pagestore.commit_p50_ms", "pagestore.commit_p99_ms", "ms", ms)
	checkpoints := byName(spans, "pagestore.checkpoint", span.duration)
	if len(checkpoints) > 0 {
		res.setN("pagestore.checkpoint_ms", medianMicros(checkpoints)/1e3, "ms", len(checkpoints))
	}
	res.setN("pagestore.recover_ms", medianMicros(recoveries)/1e3, "ms", len(recoveries))
	st, fm := log.storage, float64(log.mutations)
	res.set("pagestore.fsyncs_per_commit", float64(st.WALSyncs+st.DataSyncs)/float64(log.commits), "count")
	res.set("pagestore.wal_records_per_mutation", float64(st.WALAppends)/fm, "count")
	res.set("pagestore.page_writes_per_mutation", float64(st.PageWrites)/fm, "count")
	res.set("ledger.unattributed_pct", 100*float64(self[root])/float64(spans[root].duration()), "%")
	return nil
}
