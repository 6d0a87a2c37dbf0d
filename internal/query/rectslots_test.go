package query

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// framesFetcher delivers every page as a view drawn from a pool — a
// frame — and treats it as the engine does: the views of a stage are
// poisoned and handed back when the next stage is fetched, so whatever
// an execution kept of one without copying it reads as NaN from then
// on. plain, when set, picks pages that are delivered as views of the
// live nodes instead (a pinned directory node beside decoded pages).
type framesFetcher struct {
	tree  *parallel.Tree
	pool  *rtree.ViewPool
	plain func(rtree.PageID) bool
	out   []*rtree.FlatNode
}

func (ff *framesFetcher) fetch(reqs []PageRequest) ([]*rtree.FlatNode, error) {
	ff.recycle()
	for _, r := range reqs {
		src := ff.tree.Store().Get(r.Page).Flat()
		if ff.plain != nil && ff.plain(r.Page) {
			ff.out = append(ff.out, src)
			continue
		}
		dim := src.Rects.Dim()
		f, refs := rtree.NewPageView(ff.pool, src.ID, src.Level, dim, src.Len(), false)
		for a := 0; a < dim; a++ {
			copy(f.Rects.Lo[a], src.Rects.Lo[a])
			copy(f.Rects.Hi[a], src.Rects.Hi[a])
		}
		for i := range refs {
			refs[i] = rtree.PageRef{Ref: int64(src.Object(i)), Count: uint32(src.Count(i))}
			if !src.IsLeaf() {
				refs[i].Ref = int64(src.Child(i))
			}
		}
		ff.out = append(ff.out, f)
	}
	return ff.out, nil
}

// recycle ends the hold on the views delivered last.
func (ff *framesFetcher) recycle() {
	for _, f := range ff.out {
		rtree.PoisonView(f)
		ff.pool.Put(f)
	}
	ff.out = ff.out[:0]
}

// TestNeighboursOutliveTheirFrames: every best-list execution returns
// the driver's neighbours — rectangles included, bit for bit — when its
// pages are frames that are poisoned and refilled a stage later, whether
// all pages are frames or only some, for k below, at and above what the
// tree holds; and what Results returned stays what it was while the
// scratch that held the rectangles serves other queries.
func TestNeighboursOutliveTheirFrames(t *testing.T) {
	algs := []Algorithm{BBSS{}, FPSS{}, CRSS{}, WOPTSS{}, BFSS{}}
	for _, n := range []int{40, 3000} {
		pts := dataset.CaliforniaLike(n, 811)
		tree := buildTree(t, pts, 2, 4, 8)
		d := Driver{Tree: tree}
		queries := dataset.SampleQueries(pts, 8, 812)
		for _, mixed := range []bool{false, true} {
			ff := &framesFetcher{tree: tree, pool: rtree.NewViewPool(8)}
			if mixed {
				ff.plain = func(id rtree.PageID) bool { return id%3 == 0 }
			}
			for _, alg := range algs {
				for _, k := range []int{1, 10, n, n + 5} {
					for qi, q := range queries {
						label := fmt.Sprintf("n=%d mixed=%v %s k=%d q%d", n, mixed, alg.Name(), k, qi)
						want, wantStats := d.Run(alg, q, k, Options{})
						ex := alg.NewExecution(tree, q, k, Options{})
						if err := RunWith(ex, alg.Name(), ff.fetch); err != nil {
							t.Fatal(err)
						}
						ff.recycle()
						got := ex.Results()
						ex.Release()
						d.Run(alg, queries[(qi+1)%len(queries)], k, Options{}) // the scratch moves on
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: results over frames differ from the driver's:\n got %v\nwant %v", label, got, want)
						}
						if !reflect.DeepEqual(ex.Stats(), wantStats) {
							t.Fatalf("%s: stats over frames differ from the driver's", label)
						}
					}
				}
			}
			if st := ff.pool.Stats(); st.Reused == 0 {
				t.Fatalf("n=%d mixed=%v: no frame was ever refilled: %+v", n, mixed, st)
			}
		}
	}
}

// TestFramesAllocBudget: over frames a warm query allocates one object
// more than over views it may alias — the slab its k rectangles are
// copied into when Results hands them out — however many offers its
// best list accepted on the way.
func TestFramesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const k, budget = 10, 5
	pts := dataset.CaliforniaLike(12000, 501)
	tree := buildTree(t, pts, 2, 5, 8)
	q := dataset.SampleQueries(pts, 1, 502)[0]
	ff := &framesFetcher{tree: tree, pool: rtree.NewViewPool(8)}
	for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}, BFSS{}} {
		run := func() {
			ex := alg.NewExecution(tree, q, k, Options{})
			if err := RunWith(ex, alg.Name(), ff.fetch); err != nil {
				t.Fatal(err)
			}
			if len(ex.Results()) != k {
				t.Fatal("short result")
			}
			ex.Release()
		}
		for i := 0; i < 3; i++ {
			run()
		}
		if got := testing.AllocsPerRun(200, run); got > budget {
			t.Errorf("%s: %.1f allocations per warm query over frames, budget %d", alg.Name(), got, budget)
		}
	}
}
