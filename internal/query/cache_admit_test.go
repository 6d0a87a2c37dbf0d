package query

import (
	"errors"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/dataset"
	"repro/internal/rtree"
)

// TestSharedCacheAdmitsOnDelivery is the regression test for the
// admit-before-fetch bug: a page must enter the shared cache only
// after its fetch delivered. A fetcher that fails mid-query must leave
// the cache holding exactly the pages of the stages that completed —
// a later query may not see a false residency hit for a page that was
// never read.
func TestSharedCacheAdmitsOnDelivery(t *testing.T) {
	pts := dataset.CaliforniaLike(2000, 51)
	tree := buildTree(t, pts, 2, 4, 16)
	q := dataset.SampleQueries(pts, 1, 52)[0]
	pool := bufferpool.New[rtree.PageID, struct{}](256)
	opts := Options{SharedCache: pool}

	// Fail the very first fetch: nothing was delivered, so nothing may
	// have been admitted.
	bang := errors.New("disk on fire")
	ex := CRSS{}.NewExecution(tree, q, 5, opts)
	err := RunWith(ex, "CRSS", func(reqs []PageRequest) ([]*rtree.FlatNode, error) {
		return nil, bang
	})
	if !errors.Is(err, bang) {
		t.Fatalf("err = %v", err)
	}
	if n := pool.Len(); n != 0 {
		t.Fatalf("failed first fetch left %d pages in the shared cache", n)
	}

	// Fail at stage 3: stages 0 and 1 delivered (and only those pages
	// may be resident); stage 2's requests were in flight when the
	// failure hit and must not be resident.
	var delivered, inFlight []rtree.PageID
	stage := 0
	ex = CRSS{}.NewExecution(tree, q, 5, opts)
	err = RunWith(ex, "CRSS", func(reqs []PageRequest) ([]*rtree.FlatNode, error) {
		if stage == 2 {
			for _, r := range reqs {
				if !r.Cached {
					inFlight = append(inFlight, r.Page)
				}
			}
			return nil, bang
		}
		stage++
		nodes := make([]*rtree.FlatNode, len(reqs))
		for i, r := range reqs {
			nodes[i] = tree.Store().Get(r.Page).Flat()
			if !r.Cached {
				delivered = append(delivered, r.Page)
			}
		}
		return nodes, nil
	})
	if !errors.Is(err, bang) {
		t.Fatalf("err = %v", err)
	}
	if len(inFlight) == 0 {
		t.Fatal("test never reached stage 2; tree too shallow")
	}
	for _, id := range inFlight {
		if pool.Contains(id) {
			t.Errorf("page %d admitted although its fetch failed", id)
		}
	}
	// All but the last delivered stage must be resident (the final
	// delivered batch is admitted when the next stage runs — which
	// here was the failing one, so it is admitted too).
	for _, id := range delivered[:len(delivered)-1] {
		if !pool.Contains(id) {
			t.Errorf("delivered page %d missing from the shared cache", id)
		}
	}
}

// TestSharedCacheCompletedQueryAdmitsAll: after a query runs to
// completion every physically fetched page is resident, so an
// identical follow-up query does zero disk accesses (full residency),
// and its result set is unchanged.
func TestSharedCacheCompletedQueryAdmitsAll(t *testing.T) {
	pts := dataset.CaliforniaLike(2000, 53)
	tree := buildTree(t, pts, 2, 4, 16)
	q := dataset.SampleQueries(pts, 1, 54)[0]
	pool := bufferpool.New[rtree.PageID, struct{}](1024)
	opts := Options{SharedCache: pool}
	d := Driver{Tree: tree}

	res1, stats1 := d.Run(CRSS{}, q, 5, opts)
	if stats1.DiskAccesses == 0 {
		t.Fatal("first run hit no disk")
	}
	if pool.Len() != stats1.DiskAccesses {
		t.Fatalf("cache holds %d pages, query fetched %d", pool.Len(), stats1.DiskAccesses)
	}
	res2, stats2 := d.Run(CRSS{}, q, 5, opts)
	if stats2.DiskAccesses != 0 {
		t.Fatalf("repeat run paid %d disk accesses despite full residency", stats2.DiskAccesses)
	}
	if stats2.NodesVisited != stats1.NodesVisited {
		t.Fatalf("repeat run visited %d nodes, first %d", stats2.NodesVisited, stats1.NodesVisited)
	}
	for i := range res1 {
		if res1[i].Object != res2[i].Object || res1[i].DistSq != res2[i].DistSq {
			t.Fatalf("rank %d differs between runs", i)
		}
	}
}
