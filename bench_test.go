// Repository benchmarks: one macro-benchmark per figure/table of the
// paper (each regenerates its experiment through internal/harness and
// prints the resulting series once), plus micro-benchmarks for the
// performance-critical building blocks.
//
// The macro-benchmarks run at a reduced scale (bench* constants below)
// so that `go test -bench=.` completes in minutes; run
// `go run ./cmd/experiments -exp all` for paper-scale populations.
package simquery_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/sim"
	"repro/internal/simarray"
)

const (
	benchScale   = 0.08
	benchQueries = 10
	benchSeed    = 1998
)

var printedTables sync.Map

// benchExperiment regenerates one experiment per iteration and prints
// its table the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := harness.Options{Scale: benchScale, Queries: benchQueries, Seed: benchSeed}
	for i := 0; i < b.N; i++ {
		tb, err := harness.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printedTables.LoadOrStore(id, true); !done {
			fmt.Fprintf(os.Stdout, "\n")
			tb.Format(os.Stdout)
		}
	}
}

// Figures 8–12 and Tables 3–5 of the paper, plus the DESIGN.md ablations.

func BenchmarkFig8CaliforniaPlaces(b *testing.B) { benchExperiment(b, "fig8-cp") }
func BenchmarkFig8LongBeach(b *testing.B)        { benchExperiment(b, "fig8-lb") }
func BenchmarkFig9Gaussian10d(b *testing.B)      { benchExperiment(b, "fig9-sg") }
func BenchmarkFig9Uniform10d(b *testing.B)       { benchExperiment(b, "fig9-su") }
func BenchmarkFig10LongBeach(b *testing.B)       { benchExperiment(b, "fig10-lb") }
func BenchmarkFig10California(b *testing.B)      { benchExperiment(b, "fig10-cp") }
func BenchmarkFig11K10(b *testing.B)             { benchExperiment(b, "fig11-k10") }
func BenchmarkFig11K100(b *testing.B)            { benchExperiment(b, "fig11-k100") }
func BenchmarkFig12Lambda1(b *testing.B)         { benchExperiment(b, "fig12-l1") }
func BenchmarkFig12Lambda20(b *testing.B)        { benchExperiment(b, "fig12-l20") }
func BenchmarkTable3Scaleup(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkTable4QuerySize(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5Qualitative(b *testing.B)    { benchExperiment(b, "table5") }

func BenchmarkAblationDeclustering(b *testing.B)    { benchExperiment(b, "abl-decl") }
func BenchmarkAblationEpsilonSeries(b *testing.B)   { benchExperiment(b, "abl-eps") }
func BenchmarkAblationActivationBound(b *testing.B) { benchExperiment(b, "abl-act") }
func BenchmarkAblationCache(b *testing.B)           { benchExperiment(b, "abl-cache") }
func BenchmarkAblationSRTree(b *testing.B)          { benchExperiment(b, "abl-sr") }
func BenchmarkAblationRAID1(b *testing.B)           { benchExperiment(b, "abl-raid1") }
func BenchmarkAblationAnalyticModel(b *testing.B)   { benchExperiment(b, "abl-model") }
func BenchmarkAblationBestFirst(b *testing.B)       { benchExperiment(b, "abl-bf") }
func BenchmarkKNNBestFirst(b *testing.B)            { benchKNN(b, query.BFSS{}, 10) }
func BenchmarkAblationPacking(b *testing.B)         { benchExperiment(b, "abl-pack") }
func BenchmarkAblationCPUs(b *testing.B)            { benchExperiment(b, "abl-cpu") }
func BenchmarkAblationXTree(b *testing.B)           { benchExperiment(b, "abl-xtree") }
func BenchmarkAblationRangeQueries(b *testing.B)    { benchExperiment(b, "abl-range") }

func BenchmarkBulkLoadSTR(b *testing.B) {
	pts := dataset.Uniform(20000, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: 92}, nil)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]rtree.Entry, len(pts))
		for j, p := range pts {
			items[j] = rtree.LeafEntry(geom.PointRect(p), rtree.ObjectID(j))
		}
		if err := tr.BulkLoadSTR(items); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------
// Micro-benchmarks for the building blocks.

func BenchmarkGeomMinDist(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p := make(geom.Point, 10)
	lo := make(geom.Point, 10)
	hi := make(geom.Point, 10)
	for d := 0; d < 10; d++ {
		p[d] = rnd.Float64()
		lo[d] = rnd.Float64() * 0.5
		hi[d] = lo[d] + rnd.Float64()*0.5
	}
	r := geom.Rect{Lo: lo, Hi: hi}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.MinDistSq(p, r)
	}
}

func BenchmarkGeomMinMaxDist(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p := make(geom.Point, 10)
	lo := make(geom.Point, 10)
	hi := make(geom.Point, 10)
	for d := 0; d < 10; d++ {
		p[d] = rnd.Float64()
		lo[d] = rnd.Float64() * 0.5
		hi[d] = lo[d] + rnd.Float64()*0.5
	}
	r := geom.Rect{Lo: lo, Hi: hi}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.MinMaxDistSq(p, r)
	}
}

// BenchmarkKernels compares the scalar distance kernels against the
// batch kernels over one node-sized batch of rectangles (the per-page
// entry capacity at each dimensionality — the exact shape of the
// candidate-filtering pass). The bench-json CI job records both series;
// cmd/benchjson derives the batch/scalar speedup per metric and
// dimension from the matching name pairs.
func BenchmarkKernels(b *testing.B) {
	rnd := rand.New(rand.NewSource(benchSeed))
	for _, dim := range []int{2, 3, 4, 8} {
		n := pagestore.Codec{Dim: dim, PageSize: 4096}.Capacity()
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = rnd.Float64()
		}
		rects := make([]geom.Rect, n)
		soa := geom.MakeRectSoA(dim, n)
		for i := range rects {
			lo := make(geom.Point, dim)
			hi := make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = rnd.Float64() * 0.5
				hi[a] = lo[a] + rnd.Float64()*0.5
				soa.Lo[a][i] = lo[a]
				soa.Hi[a][i] = hi[a]
			}
			rects[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		out := make([]float64, n)
		kernels := []struct {
			name   string
			scalar func()
			batch  func()
		}{
			{"dmin",
				func() {
					for j := range rects {
						out[j] = geom.MinDistSq(p, rects[j])
					}
				},
				func() { geom.MinDistSqBatch(p, &soa, out) }},
			{"dmm",
				func() {
					for j := range rects {
						out[j] = geom.MinMaxDistSq(p, rects[j])
					}
				},
				func() { geom.MinMaxDistSqBatch(p, &soa, out) }},
			{"dmax",
				func() {
					for j := range rects {
						out[j] = geom.MaxDistSq(p, rects[j])
					}
				},
				func() { geom.MaxDistSqBatch(p, &soa, out) }},
		}
		for _, k := range kernels {
			k := k
			b.Run(fmt.Sprintf("scalar/%s/d=%d", k.name, dim), func(b *testing.B) {
				b.ReportMetric(float64(n), "entries/batch")
				for i := 0; i < b.N; i++ {
					k.scalar()
				}
			})
			b.Run(fmt.Sprintf("batch/%s/d=%d", k.name, dim), func(b *testing.B) {
				b.ReportMetric(float64(n), "entries/batch")
				for i := 0; i < b.N; i++ {
					k.batch()
				}
			})
		}
	}
}

func BenchmarkRStarInsert2D(b *testing.B) {
	pts := dataset.Uniform(b.N, 2, 1)
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: 92}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.InsertPoint(pts[i], rtree.ObjectID(i))
	}
}

func BenchmarkRStarInsert10D(b *testing.B) {
	pts := dataset.Uniform(b.N, 10, 1)
	tr, err := rtree.New(rtree.Config{Dim: 10, MaxEntries: 23}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.InsertPoint(pts[i], rtree.ObjectID(i))
	}
}

// knnTree builds a shared tree for the per-algorithm k-NN benches.
var knnTreeOnce sync.Once
var knnTree *parallel.Tree
var knnQueries []geom.Point

func knnSetup(tb testing.TB) {
	knnTreeOnce.Do(func() {
		pts := dataset.CaliforniaLike(20000, 3)
		t, err := parallel.New(parallel.Config{
			Dim: 2, NumDisks: 10, Cylinders: disk.HPC2200A().Cylinders,
			Policy: decluster.ProximityIndex{}, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		if err := t.BuildPoints(pts); err != nil {
			panic(err)
		}
		knnTree = t
		knnQueries = dataset.SampleQueries(pts, 256, 4)
	})
	if knnTree == nil {
		tb.Fatal("knn tree setup failed")
	}
}

func benchKNN(b *testing.B, alg query.Algorithm, k int) {
	b.Helper()
	knnSetup(b)
	d := query.Driver{Tree: knnTree}
	b.ResetTimer()
	var visited, pages int
	for i := 0; i < b.N; i++ {
		_, stats := d.Run(alg, knnQueries[i%len(knnQueries)], k, query.Options{})
		visited += stats.NodesVisited
		pages += stats.DiskAccesses
	}
	b.ReportMetric(float64(visited)/float64(b.N), "nodes/query")
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

func BenchmarkKNNBBSS(b *testing.B)   { benchKNN(b, query.BBSS{}, 10) }
func BenchmarkKNNFPSS(b *testing.B)   { benchKNN(b, query.FPSS{}, 10) }
func BenchmarkKNNCRSS(b *testing.B)   { benchKNN(b, query.CRSS{}, 10) }
func BenchmarkKNNWOPTSS(b *testing.B) { benchKNN(b, query.WOPTSS{}, 10) }

// BenchmarkEngineThroughput measures end-to-end queries/sec of the real
// concurrent execution engine (package exec) against the sequential
// Driver baseline. The engine sub-benchmarks run GOMAXPROCS client
// goroutines against one shared engine while scaling the per-disk
// worker count; on a multi-core runner throughput grows with workers
// over the sequential path. Compare the queries/sec metric across
// sub-benchmarks.
func BenchmarkEngineThroughput(b *testing.B) {
	knnSetup(b)
	const k = 10

	reportQPS := func(b *testing.B) {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "queries/sec")
		}
	}

	b.Run("sequential", func(b *testing.B) {
		d := query.Driver{Tree: knnTree}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Run(query.CRSS{}, knnQueries[i%len(knnQueries)], k, query.Options{})
		}
		reportQPS(b)
	})

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("engine-workers=%dx%d", 10, workers), func(b *testing.B) {
			eng, err := exec.New(knnTree, exec.Config{WorkersPerDisk: workers, CachePages: 1024})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					q := knnQueries[i%len(knnQueries)]
					if _, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			reportQPS(b)
		})
	}

	// The miss path: file-backed replicas and a cache of 5 % of the
	// pages, so nearly every page request reads and decodes — once with
	// pread, once through the mapping. One client: which pages hit then
	// depends on the queries alone, and allocs/op repeats closely enough
	// for the bench-check gate.
	for _, store := range []struct {
		name string
		mmap bool
	}{{"file", false}, {"mmap", true}} {
		b.Run("engine-store="+store.name+"-cache=5pct", func(b *testing.B) {
			eng, err := exec.New(knnTree, exec.Config{
				DataDir: b.TempDir(), Mmap: store.mmap, CachePages: knnTree.Store().Len() / 20})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := knnQueries[i%len(knnQueries)]
				if _, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}

// BenchmarkEngineMissPath is the engine where a page request is almost
// always a physical read: 8-d Gaussian points (a query touches a third
// of the tree's pages), file-backed pread replicas, a cache of 5 % of
// the pages with fetch coalescing on, two client goroutines. What it
// tracks is what the engine spends around each read — ns/op and above
// all B/op and allocs/op, which say whether decoded views are recycled
// or left to the collector, and views/query, the frames made after
// warm-up, which reads 0 when they are — against pages/query, which a
// change to the engine must not move.
func BenchmarkEngineMissPath(b *testing.B) {
	pts := dataset.Gaussian(12000, 8, 1998)
	tree, err := parallel.New(parallel.Config{
		Dim: 8, NumDisks: 10, Cylinders: disk.HPC2200A().Cylinders,
		Policy: decluster.ProximityIndex{}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		b.Fatal(err)
	}
	queries := dataset.SampleQueries(pts, 256, 4)
	eng, err := exec.New(tree, exec.Config{
		DataDir: b.TempDir(), CachePages: tree.Store().Len() / 20, CoalesceFetches: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	// run answers n queries on two client goroutines.
	run := func(n int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i > n {
						return
					}
					if _, _, err := eng.KNN(ctx, query.CRSS{}, queries[i%len(queries)], 10, query.Options{}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	run(len(queries)) // warm: the frames are made here
	before := eng.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	d := eng.Snapshot().Sub(before)
	b.ReportMetric(float64(d.Stats.PagesFetched)/float64(b.N), "pages/query")
	b.ReportMetric(float64(d.Views.Made)/float64(b.N), "views/query")
}

// BenchmarkEngineObserved is the engine-workers=10x2 sub-benchmark of
// BenchmarkEngineThroughput with the full observability pipeline
// attached: a per-query trace observer plus the engine's always-on
// histograms and gauges. The nightly CI job runs both and compares the
// queries/sec metrics — the observed path must stay within noise of
// the uninstrumented one (the obs layer is single atomic ops).
func BenchmarkEngineObserved(b *testing.B) {
	knnSetup(b)
	const k = 10
	eng, err := exec.New(knnTree, exec.Config{WorkersPerDisk: 2, CachePages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var events atomic.Uint64
	obsv := obs.ObserverFunc(func(obs.Event) { events.Add(1) })
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			q := knnQueries[i%len(knnQueries)]
			if _, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{Observer: obsv}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "queries/sec")
	}
	b.ReportMetric(float64(events.Load())/float64(b.N), "events/query")
}

// TestObservedOverhead is the nightly overhead smoke check (skipped
// unless OBS_OVERHEAD is set): it times the same query mix through one
// engine with and without a trace observer attached and fails if the
// observed path is more than 25% slower — a loose bound chosen to
// survive CI noise while still catching an accidental lock or
// allocation on the hot path. Use the benchmark pair above for precise
// numbers.
func TestObservedOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD") == "" {
		t.Skip("set OBS_OVERHEAD=1 to run the observability overhead check")
	}
	knnSetup(t)
	eng, err := exec.New(knnTree, exec.Config{WorkersPerDisk: 2, CachePages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var sink atomic.Uint64
	obsv := obs.ObserverFunc(func(obs.Event) { sink.Add(1) })

	const rounds, queriesPerRound = 5, 200
	run := func(opts query.Options) float64 {
		best := 0.0
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < queriesPerRound; i++ {
				if _, _, err := eng.KNN(ctx, query.CRSS{}, knnQueries[i%len(knnQueries)], 10, opts); err != nil {
					t.Fatal(err)
				}
			}
			if s := time.Since(start).Seconds(); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	run(query.Options{}) // warm the engine cache for both measurements
	base := run(query.Options{})
	observed := run(query.Options{Observer: obsv})
	ratio := observed / base
	t.Logf("uninstrumented %.4fs, observed %.4fs, ratio %.3f (%d events)", base, observed, ratio, sink.Load())
	if ratio > 1.25 {
		t.Errorf("observed path is %.0f%% slower than uninstrumented (limit 25%%)", (ratio-1)*100)
	}
}

// BenchmarkDurableIngest measures the write path's unit of work: one
// batch of 45 inserts and 5 deletes on a tree in a durable store in a
// temporary directory, made durable by one Commit (page images into the
// WAL, one fsync). The tree starts at 2 000 points of the 2-d
// California-like set and is rebuilt, off the clock, every 250 batches,
// so that an op costs the same at every b.N. "rtree" is a bare R*-tree
// over a DurableStore; "core-index" is a durable core.Index, whose
// parallel.Tree runs the Proximity Index on every new page.
func BenchmarkDurableIngest(b *testing.B) {
	codec := pagestore.Codec{Dim: 2, PageSize: 4096}
	b.Run("rtree", func(b *testing.B) {
		benchDurableIngest(b, func(dir string) (durableIngest, error) {
			ds, err := pagestore.OpenDurable(dir, codec, pagestore.DurableOptions{})
			if err != nil {
				return durableIngest{}, err
			}
			tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: codec.Capacity()}, ds)
			if err != nil {
				return durableIngest{}, errors.Join(err, ds.Close())
			}
			return durableIngest{
				insert:     func(p geom.Point, id int) error { return tr.InsertPoint(p, rtree.ObjectID(id)) },
				delete:     func(p geom.Point, id int) bool { return tr.DeletePoint(p, rtree.ObjectID(id)) },
				commit:     func() error { return ds.Commit(tr.Root(), tr.Len()) },
				checkpoint: ds.Checkpoint,
				close:      ds.Close,
			}, nil
		})
	})
	b.Run("core-index", func(b *testing.B) {
		benchDurableIngest(b, func(dir string) (durableIngest, error) {
			ix, err := core.NewIndex(core.IndexConfig{Dim: 2, NumDisks: 10, PageSize: codec.PageSize, DataDir: dir})
			if err != nil {
				return durableIngest{}, err
			}
			return durableIngest{
				insert:     func(p geom.Point, id int) error { return ix.Insert(p, core.ObjectID(id)) },
				delete:     func(p geom.Point, id int) bool { return ix.Delete(p, core.ObjectID(id)) },
				commit:     ix.Commit,
				checkpoint: ix.Checkpoint,
				close:      ix.Close,
			}, nil
		})
	})
}

// durableIngest is a durable tree as BenchmarkDurableIngest drives it.
type durableIngest struct {
	insert             func(p geom.Point, id int) error
	delete             func(p geom.Point, id int) bool
	commit, checkpoint func() error
	close              func() error
}

func benchDurableIngest(b *testing.B, open func(dir string) (durableIngest, error)) {
	const (
		preload, inserts, deletes = 2000, 45, 5
		batchesPerStore           = 250
	)
	pts := dataset.CaliforniaLike(preload+inserts*batchesPerStore, benchSeed)
	var (
		tree    durableIngest
		next    int // the next point to insert
		victim  int // the oldest point still in the tree
		dir     string
		batches int
	)
	closeStore := func() {
		if tree.close == nil {
			return
		}
		if err := tree.close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	defer closeStore()
	openStore := func() {
		closeStore()
		var err error
		if dir, err = os.MkdirTemp(b.TempDir(), "ingest"); err != nil {
			b.Fatal(err)
		}
		if tree, err = open(dir); err != nil {
			b.Fatal(err)
		}
		for next = 0; next < preload; next++ {
			if err := tree.insert(pts[next], next); err != nil {
				b.Fatal(err)
			}
		}
		victim, batches = 0, 0
		if err := tree.commit(); err != nil {
			b.Fatal(err)
		}
		if err := tree.checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	openStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batches == batchesPerStore {
			b.StopTimer()
			openStore()
			b.StartTimer()
		}
		for j := 0; j < inserts; j++ {
			if err := tree.insert(pts[next], next); err != nil {
				b.Fatal(err)
			}
			next++
		}
		for j := 0; j < deletes; j++ {
			if !tree.delete(pts[victim], victim) {
				b.Fatalf("delete of live object %d failed", victim)
			}
			victim++
		}
		if err := tree.commit(); err != nil {
			b.Fatal(err)
		}
		batches++
	}
}

func BenchmarkPageCodecEncode(b *testing.B) {
	c := pagestore.Codec{Dim: 2, PageSize: 4096}
	n := &rtree.Node{ID: 1, Level: 0}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < c.Capacity(); i++ {
		x, y := rnd.Float64(), rnd.Float64()
		n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{x, y}), rtree.ObjectID(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageDecode measures what a page miss pays to turn an image
// into something a query can read: the read path's decoder (flat: the
// kernels' columns straight from the image) beside the write side's
// (node: a mutable rtree.Node), on leaf pages filled to about 70 %.
func BenchmarkPageDecode(b *testing.B) {
	for _, cfg := range []struct{ dim, entries int }{{2, 64}, {8, 21}} {
		c := pagestore.Codec{Dim: cfg.dim, PageSize: 4096}
		n := &rtree.Node{ID: 1, Level: 0}
		rnd := rand.New(rand.NewSource(1))
		for i := 0; i < cfg.entries; i++ {
			p := make(geom.Point, cfg.dim)
			for a := range p {
				p[a] = rnd.Float64()
			}
			n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(p), rtree.ObjectID(i)))
		}
		buf, err := c.Encode(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("flat/d=%d", cfg.dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("node/d=%d", cfg.dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.DecodeNode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	s := sim.New()
	st := sim.NewStation(s, "d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(0.001, nil)
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkSimulatedWorkload(b *testing.B) {
	knnSetup(b)
	qs := knnQueries[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := simarray.MeanResponseOf(knnTree, simarray.Config{Seed: 1}, simarray.Workload{
			Algorithm: query.CRSS{}, K: 10, Queries: qs, ArrivalRate: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
