package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestConcurrentReadsAndWrites exercises the index lock: every reader
// of the tree — KNN, KNNTraced, RangeSearch, Len, Tree, Check and
// Distribution — runs beside writers; run with -race to verify. Each
// reader has a goroutine of its own, so the only lock between its
// reads and the writers is the one the reader itself takes.
func TestConcurrentReadsAndWrites(t *testing.T) {
	ix := newTestIndex(t, 2, 4)
	pts := dataset.Uniform(3000, 2, 13)
	if err := ix.InsertAll(pts[:2000], 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	readers := []struct {
		name string
		read func(q Point) error
	}{
		{"KNN", func(q Point) error {
			_, _, err := ix.KNN(q, 5, "crss")
			return err
		}},
		{"KNNTraced", func(q Point) error {
			_, _, err := ix.KNNTraced(q, 3, "crss", func(string) {})
			return err
		}},
		{"RangeSearch", func(q Point) error {
			_, _, err := ix.RangeSearch(q, 0.05)
			return err
		}},
		{"Len", func(Point) error {
			if n := ix.Len(); n < 2000 {
				return fmt.Errorf("Len %d mid-insert, want at least 2000", n)
			}
			return nil
		}},
		{"Tree", func(Point) error {
			if ix.Tree() == nil {
				return errors.New("Tree is nil")
			}
			return nil
		}},
		{"Check", func(Point) error { return ix.Check() }},
		{"Distribution", func(Point) error {
			if d := ix.Distribution(); d.Total == 0 {
				return errors.New("Distribution counts no pages")
			}
			return nil
		}},
	}
	// Each reader runs until the writers are done, so its reads
	// interleave with their writes.
	stop := make(chan struct{})
	var readersDone sync.WaitGroup
	for i, r := range readers {
		readersDone.Add(1)
		go func(name string, read func(Point) error, seed int64) {
			defer readersDone.Done()
			qs := dataset.SampleQueries(pts, 30, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(qs[i%len(qs)]); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}(r.name, r.read, int64(101+i))
	}
	// 2 writer goroutines inserting disjoint ranges.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 2000 + g*500
			for i := 0; i < 500; i++ {
				if err := ix.Insert(pts[base+i], ObjectID(10000+base+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readersDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenedIndexEngineAnswersAlike: an engine over a reopened
// durable index answers bit for bit like one over the index before it
// was closed, with replicas in memory and in files: the reopen keeps the
// page size, every page and every page's disk.
func TestReopenedIndexEngineAnswersAlike(t *testing.T) {
	cfg := IndexConfig{Dim: 2, NumDisks: 10, Seed: 1998, DataDir: t.TempDir()}
	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.CaliforniaLike(3000, 1998)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	queries := dataset.SampleQueries(pts, 20, 1999)
	answers := func(x *Index, ecfg EngineConfig) [][]Neighbor {
		eng, err := x.NewEngine(ecfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		out := make([][]Neighbor, len(queries))
		for i, q := range queries {
			if out[i], _, err = eng.KNN(context.Background(), q, 10, "crss"); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	engines := []EngineConfig{{}, {DataDir: t.TempDir()}}
	want := make([][][]Neighbor, len(engines))
	for i, ecfg := range engines {
		want[i] = answers(ix, ecfg)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, ecfg := range engines {
		for qi, got := range answers(re, ecfg) {
			w := want[i][qi]
			if len(got) != len(w) {
				t.Fatalf("engine %d q%d: %d results, want %d", i, qi, len(got), len(w))
			}
			for j := range got {
				g := got[j]
				if g.Object != w[j].Object || math.Float64bits(g.DistSq) != math.Float64bits(w[j].DistSq) || !g.Point.Equal(w[j].Point) {
					t.Fatalf("engine %d q%d: result %d is %+v over the reopened index, %+v before", i, qi, j, g, w[j])
				}
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
