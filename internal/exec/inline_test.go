package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/query"
)

// TestFramedEngineReadsInlineOnceReadsProveFast: a framed engine hands
// its leaves to the disk workers until its replica reads have proven
// cheaper than that hand-off (inlineMinReads reads averaging at most
// inlineReadMax); from then on it reads them on the querying goroutine.
// The in-flight slots tell the two paths apart: a worker read needs
// one, an inline read none. So with every slot taken an unproven engine
// cannot answer, a proven one answers every query with the Driver's
// neighbors, and an engine whose drives are slow keeps its workers.
func TestFramedEngineReadsInlineOnceReadsProveFast(t *testing.T) {
	tree, pts := buildTree(t, 4000, 5, false, 0)
	queries := dataset.SampleQueries(pts, 20, 3)
	drv := query.Driver{Tree: tree}

	knn := func(eng *Engine, q geom.Point, timeout time.Duration) ([]query.Neighbor, error) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		got, _, err := eng.KNN(ctx, query.CRSS{}, q, 10, query.Options{})
		return got, err
	}
	// takeSlots takes every free in-flight slot and returns their release.
	takeSlots := func(eng *Engine) func() {
		n := 0
		for len(eng.sem) < cap(eng.sem) {
			eng.sem <- struct{}{}
			n++
		}
		return func() {
			for ; n > 0; n-- {
				<-eng.sem
			}
		}
	}
	// prove runs queries, each checked against the Driver, until the
	// engine has made inlineMinReads replica reads.
	prove := func(t *testing.T, eng *Engine) {
		t.Helper()
		for i := 0; eng.readLat.Count() < inlineMinReads; i++ {
			if i == 1000 {
				t.Fatalf("%d queries made only %d replica reads", i, eng.readLat.Count())
			}
			q := queries[i%len(queries)]
			want, _ := drv.Run(query.CRSS{}, q, 10, pinnedDir(tree))
			got, err := knn(eng, q, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, fmt.Sprintf("warm-up query %d", i), want, got)
		}
	}
	mean := func(eng *Engine) time.Duration {
		return time.Duration(eng.readLat.Sum() / float64(eng.readLat.Count()) * float64(time.Second))
	}

	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast/coalesce=%v", coalesce), func(t *testing.T) {
			eng, err := New(tree, Config{CoalesceFetches: coalesce})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			release := takeSlots(eng)
			if _, err := knn(eng, queries[0], 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("unproven engine with every slot taken: err = %v, want a deadline", err)
			}
			release()
			prove(t, eng)
			if m := mean(eng); m > inlineReadMax {
				t.Skipf("replica reads average %v in this build, more than inlineReadMax (%v)", m, inlineReadMax)
			}
			defer takeSlots(eng)()
			for qi, q := range queries {
				want, _ := drv.Run(query.CRSS{}, q, 10, pinnedDir(tree))
				got, err := knn(eng, q, 10*time.Second)
				if err != nil {
					t.Fatalf("query %d with every slot taken: %v", qi, err)
				}
				sameNeighbors(t, fmt.Sprintf("inline query %d", qi), want, got)
			}
		})
	}

	t.Run("slow", func(t *testing.T) {
		inj := fault.NewInjector(1)
		for d := 0; d < tree.NumDisks(); d++ {
			inj.Set(d, fault.Faults{SpikeProb: 1, SpikeDelay: 4 * inlineReadMax})
		}
		eng, err := New(tree, Config{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		prove(t, eng)
		defer takeSlots(eng)()
		if _, err := knn(eng, queries[0], 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine whose reads average %v, every slot taken: err = %v, want a deadline", mean(eng), err)
		}
	})
}

// TestInlineReadsBesideWorkers: clients of a framed, coalescing engine
// whose reads count as cheap read some leaves themselves and queue the
// others (a disk with a job waiting is not read inline), so inline reads,
// worker reads and coalesced deliveries meet in one stage. Every answer
// is the Driver's, the disks served the reads the queries' Stats charge
// less those coalesced, and at rest every frame is back in the pool. The bound is
// raised so that the path runs under the race detector too.
func TestInlineReadsBesideWorkers(t *testing.T) {
	tree, pts := buildTree(t, 3000, 6, false, 0)
	queries := dataset.SampleQueries(pts, 64, 5)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 10, query.Options{})
	}
	eng, err := New(tree, Config{CoalesceFetches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.inlineMax = time.Hour

	clients, perClient := 8, 40
	if testing.Short() {
		clients, perClient = 4, 20
	}
	charged := make([]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c*perClient + i*13) % len(queries)
				got, st, err := eng.KNN(context.Background(), query.CRSS{}, queries[qi], 10, query.Options{})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				charged[c] += uint64(st.DiskAccesses)
				for j := range got {
					if got[j].Object != want[qi][j].Object || got[j].DistSq != want[qi][j].DistSq {
						t.Errorf("client %d query %d: result %d diverged", c, qi, j)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if eng.readLat.Count() < inlineMinReads {
		t.Fatalf("%d replica reads: the inline path never opened", eng.readLat.Count())
	}
	var reads, served uint64
	for _, n := range charged {
		reads += n
	}
	for _, d := range eng.Snapshot().Disks {
		served += d.Served
	}
	st := eng.Stats()
	if served+st.FetchesCoalesced != reads || st.PagesFetched != served {
		t.Errorf("disks served %d pages, PagesFetched %d, the queries' Stats charge %d, %d of them coalesced",
			served, st.PagesFetched, reads, st.FetchesCoalesced)
	}
	if n := unrecycled(eng); n != 0 {
		t.Errorf("%d frames not back in the pool at rest", n)
	}
}
