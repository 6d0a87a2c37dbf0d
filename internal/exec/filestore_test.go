package exec

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

// File-backed replicas must answer bit-identically to the in-memory
// page images, and the storage telemetry must show the real file
// traffic.
func TestEngineFileBackedParity(t *testing.T) {
	tree, pts := buildTree(t, 3000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 20, 5)
	memEng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer memEng.Close()

	eng, err := New(tree, Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range queries {
		want, _, err := memEng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "file vs mem", want, got)
	}
	s := eng.Snapshot()
	if s.Storage.PageWrites == 0 || s.Storage.DataSyncs == 0 || s.Storage.PageReads == 0 {
		t.Errorf("storage telemetry misses the file traffic: %+v", s.Storage)
	}
}

// A misdirected read on a file-backed replica (the drive "succeeds" but
// serves the wrong slot) must be caught by the identity check, counted
// as an integrity failure, and healed by redirecting to the mirror —
// the query still answers correctly.
func TestEngineFileBackedMisdirectRedirect(t *testing.T) {
	tree, pts := buildTree(t, 2000, 3, false, 0)
	queries := dataset.SampleQueries(pts, 15, 9)
	drv := query.Driver{Tree: tree}

	inj := fault.NewInjector(42)
	// Misdirect the second read on every mirror-0 drive: by then the
	// drive has history, so it serves the previously requested page — a
	// well-formed image from the same file that only the node-id
	// identity check can catch. With two mirrors each page still has a
	// clean copy to redirect to.
	for d := 0; d < 3; d++ {
		inj.Set(d*2+0, fault.Faults{MisdirectOn: 2})
	}
	eng, err := New(tree, Config{DataDir: t.TempDir(), Mirrors: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, "misdirected file replica", want, got)
	}
	s := eng.Snapshot()
	if s.Faults.IntegrityFailures == 0 {
		t.Error("misdirected reads were not counted as integrity failures")
	}
	if s.Faults.Redirects == 0 && s.Faults.Retries == 0 {
		t.Error("misdirected reads neither retried nor redirected")
	}
}

// Truncating a replica's file mid-flight produces genuine short reads
// (io.ErrUnexpectedEOF from the kernel, not an injected error). With a
// mirror the engine must redirect and answer correctly; the failure
// shows up in the fault telemetry.
func TestEngineFileBackedTruncatedReplica(t *testing.T) {
	tree, pts := buildTree(t, 2000, 3, false, 0)
	queries := dataset.SampleQueries(pts, 10, 13)
	drv := query.Driver{Tree: tree}

	dir := t.TempDir()
	eng, err := New(tree, Config{DataDir: dir, Mirrors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.retryLimit, eng.degradeAfter = 0, 1
	// Chop every mirror-0 file down to its unused slot 0: every page read
	// against mirror 0 is now a real short read.
	for d := 0; d < 3; d++ {
		path := filepath.Join(dir, ReplicaFileName(d, 0))
		if err := os.Truncate(path, 512); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, "truncated replica", want, got)
	}
	s := eng.Snapshot()
	if s.Faults.Redirects == 0 {
		t.Error("short reads never redirected to the mirror")
	}
	if s.Stats.FetchErrors != 0 {
		t.Errorf("redirected short reads surfaced as fetch errors: %+v", s.Stats)
	}
}

// Without a mirror, a replica missing its pages is unrecoverable: the
// query must fail with the typed degraded-mode error, never a partial
// answer. The pages are missing from a file cut short, from a file of
// the right length whose slots were never written (what a page write
// that failed unnoticed would leave), and from a memory-mode replica
// whose images are damaged.
func TestEngineFileBackedTruncatedNoMirror(t *testing.T) {
	tree, pts := buildTree(t, 2000, 3, false, 0)
	queries := dataset.SampleQueries(pts, 10, 13)

	zero := func(path string) error {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, make([]byte, info.Size()), 0o644)
	}
	for _, damage := range []struct {
		name  string
		files bool
		do    func(eng *Engine, d int, path string) error
	}{
		{"truncated", true, func(_ *Engine, _ int, path string) error { return os.Truncate(path, 512) }},
		{"zeroed", true, func(_ *Engine, _ int, path string) error { return zero(path) }},
		{"damaged images", false, func(eng *Engine, d int, _ string) error {
			for _, img := range eng.replicas[d][0].reader.(*diskStore).pages {
				img[0] ^= 0xff // the page magic
			}
			return nil
		}},
	} {
		var cfg Config
		if damage.files {
			cfg.DataDir = t.TempDir()
		}
		eng, err := New(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.retryLimit, eng.degradeAfter = 0, 1
		for d := 0; d < 3; d++ {
			if err := damage.do(eng, d, filepath.Join(cfg.DataDir, ReplicaFileName(d, 0))); err != nil {
				t.Fatal(err)
			}
		}
		sawUnavailable := false
		for _, q := range queries {
			_, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
			if err == nil {
				t.Fatalf("%s: query over an unmirrored store missing its pages succeeded", damage.name)
			}
			var unavail *fault.ErrDataUnavailable
			if errors.As(err, &unavail) {
				sawUnavailable = true
			}
		}
		if !sawUnavailable {
			t.Errorf("%s: no query failed with the typed ErrDataUnavailable", damage.name)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// An engine over a DataDir that does not exist fails in New, naming the
// replica file it could not create.
func TestEngineFileBackedMissingDataDir(t *testing.T) {
	tree, _ := buildTree(t, 500, 2, false, 0)
	eng, err := New(tree, Config{DataDir: filepath.Join(t.TempDir(), "absent")})
	if err == nil {
		eng.Close()
		t.Fatal("New built an engine over a DataDir that does not exist")
	}
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "replica 0/0") {
		t.Errorf("New: %v, want the missing replica file named", err)
	}
}

// File-backed supernodes (X-tree overlap variant) are served from the
// tree with the rest of the directory; parity must hold there too.
func TestEngineFileBackedSupernodes(t *testing.T) {
	tree, pts := buildTree(t, 2500, 3, true, 0.35)
	queries := dataset.SampleQueries(pts, 10, 17)
	drv := query.Driver{Tree: tree}
	eng, err := New(tree, Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	super := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		if len(n.Entries) > tree.Config().MaxEntries {
			super++
		}
		return true
	})
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, "file-backed supernodes", want, got)
	}
}

// Decoded views against live-node views, where every leaf is a read: a
// framed file-backed engine must return the driver's neighbours —
// points included — and the driver's Stats, on a first pass and
// again once its frames are recycled, for every access method the codec
// has a layout for and the X-tree's resident supernodes. Every fetch is
// one decode, and at rest every frame is back in the pool.
func TestEngineFileBackedSmallCacheMatchesDriver(t *testing.T) {
	xtree, xpts := xtreeWithSupernodes(t, 4000)
	rstar, pts := buildTree(t, 2500, 4, false, 0)
	sr, _ := buildTree(t, 2500, 4, true, 0)

	for _, tc := range []struct {
		name string
		tree *parallel.Tree
		pts  []geom.Point
	}{{"rstar", rstar, pts}, {"sr", sr, pts}, {"xtree", xtree, xpts}} {
		queries := dataset.SampleQueries(tc.pts, 12, 23)
		drv := query.Driver{Tree: tc.tree}
		eng, err := New(tc.tree, Config{DataDir: t.TempDir(), CachePages: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for _, alg := range []query.Algorithm{query.BBSS{}, query.FPSS{}, query.CRSS{}, query.BFSS{}} {
				for qi, q := range queries {
					want, wantStats := drv.Run(alg, q, 10, pinnedDir(tc.tree))
					got, gotStats, err := eng.KNN(context.Background(), alg, q, 10, query.Options{})
					label := fmt.Sprintf("%s %s %s q%d", tc.name, pass, alg.Name(), qi)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameNeighbors(t, label, want, got)
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("%s: stats differ: driver %+v, engine %+v", label, wantStats, gotStats)
					}
				}
			}
		}
		s := eng.Snapshot()
		if s.Views.Reused == 0 || unrecycled(eng) != 0 {
			t.Errorf("%s: frames %+v: none recycled, or some not back at rest", tc.name, s.Views)
		}
		if s.Stats.Decodes != s.Stats.PagesFetched {
			t.Errorf("%s: %d decodes for %d pages fetched", tc.name, s.Stats.Decodes, s.Stats.PagesFetched)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineServesDirectoryInline: no query reads the directory from a
// drive. Over an X-tree whose supernodes exceed a page, each disk's
// store holds exactly its leaves in memory mode when the engine is
// framed, and nothing when it is resident; a replica file also keeps the
// directory pages that fit one (the tree's snapshot). A query that pins
// the leaves too decodes nothing. Concurrent clients then get the
// driver's answers and Stats at the pinned setting, and at rest the
// disks served exactly the reads the Stats charge: a framed engine with
// one decode each, a resident one with none.
func TestEngineServesDirectoryInline(t *testing.T) {
	const k, clients = 10, 4
	tree, pts := xtreeWithSupernodes(t, 4000)
	queries := dataset.SampleQueries(pts, 8, 41)
	want := driverAnswers(tree, queries, k)
	codec := tree.Config().Codec()
	leavesOn := map[int]map[rtree.PageID]bool{} // per disk, its leaves
	fileOf := map[int]map[rtree.PageID]bool{}   // per disk, what its replica file holds
	leaves := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		pl, _ := tree.Placement(n.ID)
		if leavesOn[pl.Disk] == nil {
			leavesOn[pl.Disk], fileOf[pl.Disk] = map[rtree.PageID]bool{}, map[rtree.PageID]bool{}
		}
		if n.IsLeaf() {
			leaves++
			leavesOn[pl.Disk][n.ID] = true
		}
		if len(n.Entries) <= codec.Capacity(n.Level) {
			fileOf[pl.Disk][n.ID] = true
		}
		return true
	})
	allPinned := query.Options{CachedLevels: tree.Height()}
	wantRes, wantStats := query.Driver{Tree: tree}.Run(query.CRSS{}, queries[0], k, allPinned)

	for _, tc := range []struct {
		dataDir    string
		cachePages int
	}{{"", 0}, {"", 2 * leaves}, {t.TempDir(), 0}, {t.TempDir(), 2 * leaves}} {
		mode := "mem"
		if tc.dataDir != "" {
			mode = "file"
		}
		eng, err := New(tree, Config{DataDir: tc.dataDir, CachePages: tc.cachePages})
		if err != nil {
			t.Fatal(err)
		}
		mode = fmt.Sprintf("%s resident=%v", mode, eng.resident)
		for d, reps := range eng.replicas {
			held, wantHeld := map[rtree.PageID]bool{}, leavesOn[d]
			switch st := reps[0].reader.(type) {
			case *diskStore:
				for id := range st.pages {
					held[id] = true
				}
				if eng.resident {
					wantHeld = nil
				}
			case *pagestore.FileStore:
				if err := st.ScanPages(func(id rtree.PageID, _ []byte) error {
					held[id] = true
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				wantHeld = fileOf[d]
			}
			if !maps.Equal(held, wantHeld) {
				t.Errorf("%s: disk %d holds %d pages, want %d", mode, d, len(held), len(wantHeld))
			}
		}

		got, st, err := eng.KNN(context.Background(), query.CRSS{}, queries[0], k, allPinned)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, mode+" all levels pinned", wantRes, got)
		if !reflect.DeepEqual(st, wantStats) {
			t.Errorf("%s: all levels pinned: stats %+v, driver %+v", mode, st, wantStats)
		}
		if s := eng.Stats(); s.Decodes != 0 || s.PagesFetched != 0 {
			t.Errorf("%s: a query that pins every level decoded %d pages and fetched %d", mode, s.Decodes, s.PagesFetched)
		}

		reads := askClients(t, eng, mode, queries, want, k, clients)
		s := eng.Snapshot()
		wantDecodes := s.Stats.PagesFetched
		if eng.resident {
			wantDecodes = 0
		}
		if s.Stats.PagesFetched == 0 || s.Stats.Decodes != wantDecodes {
			t.Errorf("%s: %d decodes for %d pages fetched, want %d", mode, s.Stats.Decodes, s.Stats.PagesFetched, wantDecodes)
		}
		var served uint64
		for _, d := range s.Disks {
			served += d.Served
		}
		if served != reads {
			t.Errorf("%s: disks served %d pages, the queries' Stats charge %d", mode, served, reads)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Engine.Close must surface replica-store close errors instead of
// dropping them: a store whose file was already
// closed under the engine yields a non-nil Close, a healthy engine a
// nil one, and a second Close is a nil no-op either way.
func TestEngineCloseReportsFileErrors(t *testing.T) {
	tree, _ := buildTree(t, 500, 2, false, 0)

	eng, err := New(tree, Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("healthy Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	eng, err = New(tree, Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.files) == 0 {
		t.Fatal("DataDir engine has no file stores")
	}
	if err := eng.files[0].Close(); err != nil {
		t.Fatalf("direct store close: %v", err)
	}
	if err := eng.Close(); err == nil {
		// Before the fix, closeFiles discarded this double-close error.
		t.Error("Close swallowed the replica store's close error")
	}
}

// gaussianTree is knn-file's shape: n 8-d Gaussian points on 10 disks.
func gaussianTree(t testing.TB, n int) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.Gaussian(n, 8, 1998)
	tree, err := parallel.New(parallel.Config{
		Dim: 8, NumDisks: 10, Cylinders: 1449, Policy: decluster.ProximityIndex{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

// Every engine owns its replica files: a second engine built on the
// DataDir of an open one leaves the first one's pages alone — both
// share page ids, so the identity check could not tell the other
// tree's page from its own — and both answer as their own driver does.
func TestEngineFileBackedSharedDataDir(t *testing.T) {
	dir := t.TempDir()
	treeA, ptsA := buildTree(t, 3000, 5, false, 0)
	treeB, ptsB := buildTree(t, 2000, 5, false, 0)
	engA, err := New(treeA, Config{DataDir: dir, CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer engA.Close()
	engB, err := New(treeB, Config{DataDir: dir, CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer engB.Close()
	for _, tc := range []struct {
		name string
		eng  *Engine
		tree *parallel.Tree
		pts  []geom.Point
	}{{"A", engA, treeA, ptsA}, {"B", engB, treeB, ptsB}} {
		drv := query.Driver{Tree: tc.tree}
		for qi, q := range dataset.SampleQueries(tc.pts, 15, 29) {
			want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
			got, _, err := tc.eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
			if err != nil {
				t.Fatalf("engine %s query %d: %v", tc.name, qi, err)
			}
			sameNeighbors(t, fmt.Sprintf("engine %s q%d", tc.name, qi), want, got)
		}
	}
}

// A replica file another layout left behind does not block New: an
// 8-d engine builds on the directory a closed 2-d engine used.
func TestEngineFileBackedReplacesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	tree2, _ := buildTree(t, 1000, 3, false, 0)
	eng, err := New(tree2, Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tree8, pts := gaussianTree(t, 2000)
	eng, err = New(tree8, Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	drv := query.Driver{Tree: tree8}
	for qi, q := range dataset.SampleQueries(pts, 10, 31) {
		want, _ := drv.Run(query.CRSS{}, q, 10, query.Options{})
		got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, fmt.Sprintf("8-d over 2-d files q%d", qi), want, got)
	}
}

// TestFileBackedEngineHoldsNoImages: a file-backed engine's leaves live
// in its replica files. New may keep less than an eighth of the encoded
// leaf bytes on the heap (queues, histograms, an empty cache); an
// engine over the same tree in memory mode, the control, keeps at least
// all of them. The directory is the tree's, in either mode.
func TestFileBackedEngineHoldsNoImages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap sizes")
	}
	tree, _ := gaussianTree(t, 12000)
	pages := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		if n.IsLeaf() {
			pages++
		}
		return true
	})
	images := uint64(pages * tree.Config().PageSize)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"file", Config{DataDir: t.TempDir(), CachePages: pages / 20}},
		{"mem", Config{CachePages: pages / 20}},
	} {
		retained, err := retainedByNew(tree, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: New retains %d B; the %d leaf images are %d B", tc.name, retained, pages, images)
		if tc.cfg.DataDir != "" && retained >= images/8 {
			t.Errorf("file-backed engine retains %d B, want < %d (an eighth of the leaf images)", retained, images/8)
		}
		if tc.cfg.DataDir == "" && retained < images {
			t.Errorf("memory-mode engine retains %d B, want ≥ %d: the control holds no images", retained, images)
		}
	}
}

// TestResidentEngineHoldsNoImages: a memory-mode engine whose
// CachePages covers the leaves is resident — one fewer and it is framed.
// Its disks store no leaf image, concurrent clients get the driver's
// answers and per-query Stats without a decode, and PagesFetched, the
// disks' Served gauges and the queries' Stats count the same reads.
func TestResidentEngineHoldsNoImages(t *testing.T) {
	const k = 10
	tree, pts := buildTree(t, 3000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 10, 59)
	want := driverAnswers(tree, queries, k)
	leaves := 0
	tree.Walk(func(n *rtree.Node, _ int) bool {
		if n.IsLeaf() {
			leaves++
		}
		return true
	})
	framed, err := New(tree, Config{CachePages: leaves - 1})
	if err != nil {
		t.Fatal(err)
	}
	if framed.views == nil {
		t.Errorf("CachePages %d over %d leaves: the engine is not framed", leaves-1, leaves)
	}
	if err := framed.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err := New(tree, Config{CachePages: leaves})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for d, reps := range eng.replicas {
		if n := len(reps[0].reader.(*diskStore).pages); n != 0 {
			t.Errorf("disk %d of a resident engine stores %d leaf images", d, n)
		}
	}
	reads := askClients(t, eng, "resident", queries, want, k, 3)
	s := eng.Snapshot()
	var served uint64
	for _, d := range s.Disks {
		served += d.Served
	}
	if reads == 0 || s.Stats.Decodes != 0 || s.Stats.PagesFetched != reads || served != reads {
		t.Errorf("%d decodes; PagesFetched %d, disks served %d, the queries' Stats charge %d",
			s.Stats.Decodes, s.Stats.PagesFetched, served, reads)
	}
}

// retainedByNew is the live heap an engine built by New keeps, measured
// after a forced collection on either side of New.
func retainedByNew(tree *parallel.Tree, cfg Config) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := New(tree, cfg)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	err = eng.Close()
	if after.HeapAlloc < before.HeapAlloc {
		return 0, err
	}
	return after.HeapAlloc - before.HeapAlloc, err
}

// BenchmarkEngineNew is building an engine over knn-file's tree, and
// what the engine keeps: retained-B is the live heap one engine holds
// (retainedByNew). In memory mode every page image stays on the heap —
// the images are the disks. With store=file each page is encoded once,
// into one buffer, and written to its replica file, and the heap keeps
// none of them; ns/op then includes the writes and the fsync of each
// replica file. An op is one New and its Close; a file-mode op builds
// into a directory of its own, as a first New does, so that what the
// file system spends freeing an earlier engine's files (New replaces
// them) is not charged to it.
func BenchmarkEngineNew(b *testing.B) {
	tree, _ := gaussianTree(b, 12000)
	for _, store := range []string{"mem", "file"} {
		b.Run("store="+store, func(b *testing.B) {
			cfg := Config{CachePages: tree.Store().Len() / 20}
			if store == "file" {
				cfg.DataDir = b.TempDir()
			}
			retained, err := retainedByNew(tree, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if store == "file" {
					cfg.DataDir = b.TempDir()
				}
				eng, err := New(tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(retained), "retained-B")
		})
	}
}
