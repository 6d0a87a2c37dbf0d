package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestConcurrentReadsAndWrites exercises the index lock: concurrent KNN
// and RangeSearch readers race with writers; run with -race to verify.
func TestConcurrentReadsAndWrites(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	pts := dataset.Uniform(3000, 2, 13)
	if err := ix.InsertAll(pts[:2000], 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// 4 reader goroutines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := dataset.SampleQueries(pts, 30, int64(100+g))
			for _, q := range qs {
				if _, _, err := ix.KNN(q, 5, "crss"); err != nil {
					errs <- err
					return
				}
				if _, _, err := ix.RangeSearch(q, 0.05); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// 2 writer goroutines inserting disjoint ranges.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 2000 + g*500
			for i := 0; i < 500; i++ {
				if err := ix.Insert(pts[base%3000], ObjectID(10000+base+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotLoadIndex(t *testing.T) {
	ix, err := NewIndex(IndexConfig{Dim: 3, NumDisks: 5, Seed: 21, UseSpheres: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.Clustered(1500, 3, 8, 22)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("len %d vs %d", loaded.Len(), ix.Len())
	}
	q := pts[42]
	a, _, err := ix.KNN(q, 9, "crss")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.KNN(q, 9, "crss")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].DistSq != b[i].DistSq {
			t.Fatal("kNN differs after LoadIndex")
		}
	}
	// The loaded index is fully functional: simulate on it.
	run, err := loaded.Simulate(SimulatedWorkload{
		K: 5, Queries: dataset.SampleQueries(pts, 5, 23),
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.MeanResponse <= 0 {
		t.Error("loaded index simulation produced no timing")
	}
}

// TestLoadIndexOpensFileBackedEngine: an index restored by LoadIndex
// keeps its page size, so an engine over it can write its replicas to
// files, and that engine answers bit for bit like one over the original.
// A snapshot used to restore page size 0, and the replica files refused
// to open.
func TestLoadIndexOpensFileBackedEngine(t *testing.T) {
	ix, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 10, Seed: 1998})
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.CaliforniaLike(3000, 1998)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Tree().Config().PageSize; got != 4096 {
		t.Fatalf("restored page size %d, want 4096", got)
	}
	engines := make([]*Engine, 2)
	for i, x := range []*Index{ix, loaded} {
		if engines[i], err = x.NewEngine(EngineConfig{DataDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		defer engines[i].Close()
	}
	for qi, q := range dataset.SampleQueries(pts, 20, 1999) {
		want, _, err := engines[0].KNN(context.Background(), q, 10, "crss")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := engines[1].KNN(context.Background(), q, 10, "crss")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Object != w.Object || math.Float64bits(g.DistSq) != math.Float64bits(w.DistSq) || !g.Rect.Equal(w.Rect) {
				t.Fatalf("q%d: result %d is %+v over the loaded index, %+v over the original", qi, i, g, w)
			}
		}
	}
}

// TestEngineFrontEnd drives the public concurrent engine: results match
// the sequential Index.KNN path for every algorithm name, and many
// client goroutines can share one engine (run with -race).
func TestEngineFrontEnd(t *testing.T) {
	ix := newTestIndex(t, 2, 6)
	pts := dataset.Clustered(4000, 2, 6, 31)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(EngineConfig{WorkersPerDisk: 2, CachePages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.NumWorkers() != 12 {
		t.Fatalf("NumWorkers = %d, want 12", eng.NumWorkers())
	}

	queries := dataset.SampleQueries(pts, 12, 17)
	for _, name := range []string{"crss", "bbss", "fpss", "bfss"} {
		for qi, q := range queries {
			want, _, err := ix.KNN(q, 8, name)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eng.KNN(context.Background(), q, 8, name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d results, want %d", name, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].Object != want[i].Object || got[i].DistSq != want[i].DistSq {
					t.Fatalf("%s q%d: result %d differs", name, qi, i)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 5; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, _, err := eng.KNN(context.Background(), queries[(c+i)%len(queries)], 8, ""); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := eng.Stats(); st.Queries == 0 || st.PagesFetched == 0 {
		t.Fatalf("engine counters empty: %+v", st)
	}
	if _, _, err := eng.KNN(context.Background(), queries[0], 8, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
