package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

// File-backed replicas must answer bit-identically to the in-memory
// page images, through both the pread and mmap read paths, and the
// storage telemetry must show the real file traffic.
func TestEngineFileBackedParity(t *testing.T) {
	tree, pts := buildTree(t, 3000, 4, false, 0)
	queries := dataset.SampleQueries(pts, 20, 5)
	memEng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer memEng.Close()

	for _, mmap := range []bool{false, true} {
		eng, err := New(tree, Config{DataDir: t.TempDir(), Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, _, err := memEng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, "file vs mem", want, got)
			_ = qi
		}
		s := eng.Snapshot()
		if s.Storage.PageWrites == 0 || s.Storage.DataSyncs == 0 {
			t.Errorf("mmap=%v: storage telemetry empty: %+v", mmap, s.Storage)
		}
		if !mmap && s.Storage.PageReads == 0 {
			t.Errorf("pread mode served no reads from the files: %+v", s.Storage)
		}
		eng.Close()
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
	eng, err := New(tree, Config{DataDir: dir, Mirrors: 2, RetryLimit: -1, DegradeAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Chop every mirror-0 file down to its superblock: every page read
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

// Without a mirror, a truncated file is unrecoverable: the query must
// fail with the typed degraded-mode error, never a partial answer.
func TestEngineFileBackedTruncatedNoMirror(t *testing.T) {
	tree, pts := buildTree(t, 2000, 3, false, 0)
	queries := dataset.SampleQueries(pts, 10, 13)

	dir := t.TempDir()
	eng, err := New(tree, Config{DataDir: dir, RetryLimit: -1, DegradeAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for d := 0; d < 3; d++ {
		if err := os.Truncate(filepath.Join(dir, ReplicaFileName(d, 0)), 512); err != nil {
			t.Fatal(err)
		}
	}
	sawUnavailable := false
	for _, q := range queries {
		_, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 10, query.Options{})
		if err == nil {
			t.Fatal("query over a truncated, unmirrored store succeeded")
		}
		var unavail *fault.ErrDataUnavailable
		if errors.As(err, &unavail) {
			sawUnavailable = true
		}
	}
	if !sawUnavailable {
		t.Error("no query failed with the typed ErrDataUnavailable")
	}
}

// File-backed supernodes (X-tree overlap variant) are served from the
// memory-resident fallback; parity must hold there too.
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

// Decoded views against live-node views, where nearly every page is a
// miss: a file-backed engine with a 16-page cache must return the
// driver's neighbours — rectangles included — and the driver's Stats,
// on a cold cache and again once the cache has churned, for every
// access method the codec has a layout for and the X-tree's resident
// supernodes.
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
					want, wantStats := drv.Run(alg, q, 10, query.Options{})
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
		if cs := eng.CacheStats(); cs.Evictions == 0 || cs.Hits == 0 {
			t.Errorf("%s: cache stats %+v: the 16-page cache never churned", tc.name, cs)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Engine.Close must surface replica-store close errors instead of
// dropping them (the errlost fix): a store whose file was already
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
