package query

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/geom"
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
		cols := rtree.RectColumns
		if src.IsLeaf() {
			cols = rtree.PointColumns
		}
		f, refs := rtree.NewPageView(ff.pool, src.ID, src.Level, dim, src.Len(), cols)
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
// the driver's neighbours — points included, bit for bit — when its
// pages are frames that are poisoned and refilled a stage later, whether
// all pages are frames or only some, for k below, at and above what the
// tree holds; and what Results returned stays what it was while the
// scratch that held the points serves other queries.
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
// more than over views it may alias — the slab its k points are
// copied into when Results hands them out — however many offers its
// best list accepted on the way.
func TestFramesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const k, budget = 10, 4
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

// TestRankedHoldsNoPointer: a best list's entry is moved down the list
// at every accepted offer, and a pointer in it would make every move a
// write the collector must see. Its point stays in the slot table.
func TestRankedHoldsNoPointer(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: a best list's entry must hold no pointer (keep points in the slot table)", path, ty.Kind())
		case reflect.Array:
			walk(path+"[i]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("ranked", reflect.TypeOf(ranked{}))
}

// TestReleasedScratchPinsNothing: the slot table aliases the live
// leaves' points while a query runs; once the execution is released,
// no slot holds a pointer, so a pooled scratch keeps no node alive.
func TestReleasedScratchPinsNothing(t *testing.T) {
	pts := dataset.CaliforniaLike(3000, 131)
	tree := buildTree(t, pts, 2, 5, 8)
	ff := &framesFetcher{tree: tree, pool: rtree.NewViewPool(8), plain: func(rtree.PageID) bool { return true }}
	for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}, WOPTSS{}, BFSS{}} {
		ex := alg.NewExecution(tree, dataset.SampleQueries(pts, 1, 132)[0], 25, Options{})
		var sc *scratch
		switch e := ex.(type) {
		case *bbssExec:
			sc = e.sc
		case *fpssExec:
			sc = e.sc
		case *crssExec:
			sc = e.sc
		case *woptssExec:
			sc = e.sc
		case *bfssExec:
			sc = e.sc
		}
		if err := RunWith(ex, alg.Name(), ff.fetch); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, p := range sc.best.points {
			if p != nil {
				held++
			}
		}
		if held < 25 {
			t.Fatalf("%s: %d slots hold a point before Release, want at least 25", alg.Name(), held)
		}
		ex.Release()
		for s, p := range sc.best.points[:cap(sc.best.points)] {
			if p != nil {
				t.Errorf("%s: slot %d still holds a point after Release", alg.Name(), s)
			}
		}
	}
}

// TestTiedOfferLendsItsSlot: an offer that ties the k-th distance goes
// behind it and is itself the entry pushed off; the slot its point
// was written into is the spare's, and the next offer's.
func TestTiedOfferLendsItsSlot(t *testing.T) {
	var bl bestList
	bl.reset(2, 10, 2)
	a, b := bl.offer(4, 1), bl.offer(9, 2)
	tie := bl.offer(9, 3)
	if len(bl.items) != 2 || bl.items[1].object != 2 {
		t.Fatalf("after the tie: %+v, want objects 1 and 2", bl.items)
	}
	if tie == a || tie == b || tie != bl.items[:3][2].slot {
		t.Fatalf("the tie was given slot %d beside %d and %d, the spare holds %d", tie, a, b, bl.items[:3][2].slot)
	}
	if next := bl.offer(1, 4); next != tie {
		t.Fatalf("the offer after the tie was given slot %d, want the tie's %d", next, tie)
	}
	if next := bl.offer(2, 5); next != b {
		t.Fatalf("the offer after object 2 fell off was given slot %d, want its %d", next, b)
	}
}

// TestSlotTableMatchesBruteForce: on a grid of points, where many
// objects share a distance and an offer that ties the k-th distance is
// pushed off at once, every best-list execution returns brute force's
// answer bit for bit — objects, distances and points — over live
// nodes, over frames and over a mix, for a k at the edge of a ring of
// equal distances and for a k larger than the tree holds.
func TestSlotTableMatchesBruteForce(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			pts = append(pts, geom.Point{float64(i) / 32, float64(j) / 32})
		}
	}
	tree := buildTree(t, pts, 2, 4, 8)
	queries := []geom.Point{{0.5 + 1.0/64, 0.5 + 1.0/64}, {0.25, 0.75}, {1.0 / 64, 0}}
	fetchers := map[string]Fetcher{}
	for _, mix := range []string{"live", "frames", "mixed"} {
		ff := &framesFetcher{tree: tree, pool: rtree.NewViewPool(8)}
		switch mix {
		case "live":
			ff.plain = func(rtree.PageID) bool { return true }
		case "mixed":
			ff.plain = func(id rtree.PageID) bool { return id%2 == 0 }
		}
		fetchers[mix] = ff.fetch
	}
	for qi, q := range queries {
		all := bruteforce.KNN(pts, q, len(pts))
		var ks []int // the first k of at least 10 and of at least 50 that end a ring
		for _, least := range []int{10, 50} {
			k := least
			for all[k-1].DistSq == all[k].DistSq {
				k++
			}
			ks = append(ks, k)
		}
		for _, k := range append(ks, len(pts)+5) {
			want := make([]Neighbor, 0, k)
			for _, r := range bruteforce.KNN(pts, q, k) {
				want = append(want, Neighbor{Object: rtree.ObjectID(r.Index), Point: pts[r.Index], DistSq: r.DistSq})
			}
			for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}, WOPTSS{}, BFSS{}} {
				for mix, fetch := range fetchers {
					ex := alg.NewExecution(tree, q, k, Options{})
					if err := RunWith(ex, alg.Name(), fetch); err != nil {
						t.Fatal(err)
					}
					got := ex.Results()
					ex.Release()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("q%d k=%d %s over %s: results differ from brute force:\n got %v\nwant %v", qi, k, alg.Name(), mix, got, want)
					}
				}
			}
		}
	}
}
