package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randPoints(seed int64, n, dim int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = rnd.Float64() * 1000
		}
		pts[i] = p
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0, MaxEntries: 10}, nil); err == nil {
		t.Error("accepted zero dimension")
	}
	if _, err := New(Config{Dim: 2, MaxEntries: 3}, nil); err == nil {
		t.Error("accepted capacity 3")
	}
	if _, err := New(Config{Dim: 2, MaxEntries: 10, MinEntries: 6}, nil); err == nil {
		t.Error("accepted min > max/2")
	}
	if _, err := New(Config{Dim: 2, MaxEntries: 10, ReinsertFraction: 0.9}, nil); err == nil {
		t.Error("accepted reinsert fraction 0.9")
	}
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 10})
	if tr.Config().MinEntries != 4 {
		t.Errorf("default min = %d, want 4 (40%% of 10)", tr.Config().MinEntries)
	}
	if tr.Config().ReinsertFraction != 0.3 {
		t.Errorf("default reinsert fraction = %g", tr.Config().ReinsertFraction)
	}
}

func TestCapacityForPage(t *testing.T) {
	// 2-d: (4096-16)/(32+12) = 92
	if got := CapacityForPage(4096, 2); got != 92 {
		t.Errorf("capacity 2-d = %d, want 92", got)
	}
	// 10-d: (4096-16)/(160+12) = 23
	if got := CapacityForPage(4096, 10); got != 23 {
		t.Errorf("capacity 10-d = %d, want 23", got)
	}
	// Floor of 4 for tiny pages.
	if got := CapacityForPage(64, 10); got != 4 {
		t.Errorf("tiny page capacity = %d, want 4", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree has bounds")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	nn, _ := tr.NearestNeighbors(geom.Point{0, 0}, 5)
	if len(nn) != 0 {
		t.Error("empty tree returned neighbors")
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	if err := tr.InsertPoint(geom.Point{1, 2, 3}, 1); err == nil {
		t.Error("accepted 3-d point into 2-d tree")
	}
}

func TestInsertGrowsAndStaysValid(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(1, 2000, 2)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
		if i%397 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 2000 {
		t.Errorf("len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, expected >= 3 for 2000 points at fanout 8", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchRectExactness(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 16})
	pts := randPoints(2, 1500, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	query := geom.NewRect(geom.Point{200, 300}, geom.Point{450, 700})
	got, nodes := tr.SearchRect(query, nil)
	if nodes <= 0 {
		t.Error("no nodes accessed")
	}
	want := map[ObjectID]bool{}
	for i, p := range pts {
		if query.ContainsPoint(p) {
			want[ObjectID(i)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for _, m := range got {
		if !want[m.Object] {
			t.Errorf("unexpected match %d", m.Object)
		}
	}
}

func TestSearchSphereExactness(t *testing.T) {
	tr := mustTree(t, Config{Dim: 3, MaxEntries: 12})
	pts := randPoints(3, 800, 3)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	center := geom.Point{500, 500, 500}
	eps := 180.0
	got, _ := tr.SearchSphere(center, eps, nil)
	want := map[ObjectID]bool{}
	for i, p := range pts {
		if center.DistSq(p) <= eps*eps {
			want[ObjectID(i)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for _, m := range got {
		if !want[m.Object] {
			t.Errorf("unexpected match %d", m.Object)
		}
	}
}

// bruteKNN is the straightforward O(n) reference.
func bruteKNN(pts []geom.Point, q geom.Point, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = q.DistSq(p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 10})
	pts := randPoints(4, 1000, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		q := geom.Point{rnd.Float64() * 1000, rnd.Float64() * 1000}
		k := 1 + rnd.Intn(50)
		got, nodes := tr.NearestNeighbors(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		if nodes <= 0 {
			t.Fatal("no nodes accessed")
		}
		for i := range got {
			if diff := got[i].DistSq - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d rank %d: dist² %g, want %g", trial, i, got[i].DistSq, want[i])
			}
		}
	}
}

func TestNearestNeighborsKLargerThanData(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	for i := 0; i < 5; i++ {
		_ = tr.InsertPoint(geom.Point{float64(i), 0}, ObjectID(i))
	}
	nn, _ := tr.NearestNeighbors(geom.Point{0, 0}, 50)
	if len(nn) != 5 {
		t.Errorf("got %d results, want all 5", len(nn))
	}
}

func TestDelete(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(5, 600, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	// Delete every third point.
	deleted := map[ObjectID]bool{}
	for i := 0; i < len(pts); i += 3 {
		if !tr.DeletePoint(pts[i], ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
		deleted[ObjectID(i)] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 600-200 {
		t.Errorf("len = %d, want 400", tr.Len())
	}
	// Deleted points must be gone, others present.
	all, _ := tr.SearchRect(geom.NewRect(geom.Point{-1, -1}, geom.Point{1001, 1001}), nil)
	seen := map[ObjectID]bool{}
	for _, m := range all {
		seen[m.Object] = true
	}
	for i := range pts {
		id := ObjectID(i)
		if deleted[id] && seen[id] {
			t.Errorf("object %d still present after delete", i)
		}
		if !deleted[id] && !seen[id] {
			t.Errorf("object %d lost", i)
		}
	}
}

func TestDeleteMissingReturnsFalse(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	_ = tr.InsertPoint(geom.Point{1, 1}, 1)
	if tr.DeletePoint(geom.Point{2, 2}, 2) {
		t.Error("deleted nonexistent object")
	}
	if tr.DeletePoint(geom.Point{1, 1}, 99) {
		t.Error("deleted wrong object id at same location")
	}
}

func TestDeleteAllCollapsesTree(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(6, 300, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	for i, p := range pts {
		if !tr.DeletePoint(p, ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1 (collapsed root)", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: after any interleaved sequence of inserts and deletes, the
// tree invariants hold and its contents match a model map.
func TestMixedWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		tr, err := New(Config{Dim: 2, MaxEntries: 8}, nil)
		if err != nil {
			return false
		}
		type obj struct {
			p  geom.Point
			id ObjectID
		}
		var live []obj
		next := ObjectID(1)
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rnd.Float64() < 0.65 {
				p := geom.Point{rnd.Float64() * 100, rnd.Float64() * 100}
				if err := tr.InsertPoint(p, next); err != nil {
					return false
				}
				live = append(live, obj{p, next})
				next++
			} else {
				i := rnd.Intn(len(live))
				if !tr.DeletePoint(live[i].p, live[i].id) {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		all, _ := tr.SearchRect(geom.NewRect(geom.Point{-1, -1}, geom.Point{101, 101}), nil)
		if len(all) != len(live) {
			return false
		}
		seen := map[ObjectID]bool{}
		for _, m := range all {
			seen[m.Object] = true
		}
		for _, o := range live {
			if !seen[o.id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: entry counts are maintained exactly through splits and
// reinserts — checked for several capacities and dimensions.
func TestCountMaintenanceAcrossShapes(t *testing.T) {
	for _, cfg := range []Config{
		{Dim: 2, MaxEntries: 4},
		{Dim: 2, MaxEntries: 50},
		{Dim: 5, MaxEntries: 10},
		{Dim: 10, MaxEntries: 23},
	} {
		tr := mustTree(t, cfg)
		pts := randPoints(7, 700, cfg.Dim)
		for i, p := range pts {
			if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
		// Root-level counts must sum to the dataset size.
		root := tr.Store().Get(tr.Root())
		if root.ObjectCount() != 700 {
			t.Errorf("cfg %+v: root count %d", cfg, root.ObjectCount())
		}
	}
}

func TestRectObjects(t *testing.T) {
	// The tree must also handle non-degenerate rectangles.
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	rnd := rand.New(rand.NewSource(11))
	rects := make([]geom.Rect, 300)
	for i := range rects {
		x, y := rnd.Float64()*100, rnd.Float64()*100
		rects[i] = geom.NewRect(geom.Point{x, y}, geom.Point{x + rnd.Float64()*5, y + rnd.Float64()*5})
		if err := tr.Insert(rects[i], ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geom.NewRect(geom.Point{20, 20}, geom.Point{40, 40})
	got, _ := tr.SearchRect(q, nil)
	want := 0
	for _, r := range rects {
		if r.Intersects(q) {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("rect search: got %d, want %d", len(got), want)
	}
}

func TestWalkVisitsEveryNodeOnce(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(8, 500, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	seen := map[PageID]int{}
	tr.Walk(func(n *Node, depth int) bool {
		seen[n.ID]++
		if depth != tr.Height()-1-n.Level {
			t.Errorf("node %d: depth %d, level %d, height %d", n.ID, depth, n.Level, tr.Height())
		}
		return true
	})
	for id, c := range seen {
		if c != 1 {
			t.Errorf("node %d visited %d times", id, c)
		}
	}
	if len(seen) != tr.Store().Len() {
		t.Errorf("walked %d nodes, store has %d", len(seen), tr.Store().Len())
	}
}

func TestComputeStats(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(9, 400, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	s := tr.ComputeStats()
	if s.Objects != 400 {
		t.Errorf("objects = %d", s.Objects)
	}
	if s.Nodes != s.Leaves+s.Internal {
		t.Error("nodes != leaves + internal")
	}
	if s.AvgLeafFill <= 0.3 || s.AvgLeafFill > 1 {
		t.Errorf("leaf fill = %g out of plausible range", s.AvgLeafFill)
	}
	if s.Height != tr.Height() {
		t.Error("height mismatch")
	}
}

// listenerRecorder records structural events for listener tests.
type listenerRecorder struct {
	created map[PageID][]PageID
	freed   []PageID
	roots   []PageID
}

func (l *listenerRecorder) NodeCreated(n *Node, sibs []PageID) {
	if l.created == nil {
		l.created = map[PageID][]PageID{}
	}
	l.created[n.ID] = append([]PageID(nil), sibs...)
}
func (l *listenerRecorder) NodeFreed(id PageID)   { l.freed = append(l.freed, id) }
func (l *listenerRecorder) RootChanged(id PageID) { l.roots = append(l.roots, id) }

func TestListenerSeesEveryPage(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	rec := &listenerRecorder{}
	tr.SetListener(rec)
	pts := randPoints(10, 800, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	// Every live page must have been reported created.
	ms := tr.Store().(*MemStore)
	for _, id := range ms.IDs() {
		if _, ok := rec.created[id]; !ok {
			t.Errorf("page %d never reported to listener", id)
		}
	}
	// The last reported root must be the actual root.
	if rec.roots[len(rec.roots)-1] != tr.Root() {
		t.Error("listener root out of date")
	}
	// Split-created nodes (non-roots) must carry non-empty sibling lists.
	withSibs := 0
	for _, sibs := range rec.created {
		if len(sibs) > 0 {
			withSibs++
		}
	}
	if withSibs == 0 {
		t.Error("no creation event carried sibling information")
	}
}

func TestListenerFreeOnDelete(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	rec := &listenerRecorder{}
	tr.SetListener(rec)
	pts := randPoints(12, 400, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	for i, p := range pts {
		_ = tr.DeletePoint(p, ObjectID(i))
	}
	if len(rec.freed) == 0 {
		t.Error("no pages reported freed during full deletion")
	}
}

// TestInsertRejectsNonFiniteRect: a NaN coordinate used to panic in
// ChooseSubtree (no entry ever compared better, so the descent indexed
// with −1), and an infinite one was stored, after which every ancestor
// MBR was infinite and later enlargements computed Inf − Inf. Both, and
// a rectangle with Lo above Hi, are refused before the tree is touched.
func TestInsertRejectsNonFiniteRect(t *testing.T) {
	for _, cfg := range []Config{
		{Dim: 2, MaxEntries: 8},
		{Dim: 3, MaxEntries: 8, UseSpheres: true},
	} {
		tr := mustTree(t, cfg)
		for i, p := range randPoints(7, 300, cfg.Dim) { // height > 1: ChooseSubtree runs
			if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := tr.Bounds()
		nan, inf := math.NaN(), math.Inf(1)
		for _, bad := range []struct{ lo, hi float64 }{
			{nan, 1}, {1, nan}, {nan, nan}, {1, inf}, {-inf, 1}, {inf, inf}, {2, 1},
		} {
			for axis := 0; axis < cfg.Dim; axis++ {
				r := geom.Rect{Lo: make(geom.Point, cfg.Dim), Hi: make(geom.Point, cfg.Dim)}
				r.Lo[axis], r.Hi[axis] = bad.lo, bad.hi
				if err := tr.Insert(r, 9999); err == nil {
					t.Errorf("Insert accepted %v", r)
				}
			}
		}
		if err := tr.InsertPoint(geom.Point{nan, 0, 0}[:cfg.Dim], 9999); err == nil {
			t.Error("InsertPoint accepted a NaN coordinate")
		}
		if tr.Len() != 300 {
			t.Errorf("Len = %d after rejected inserts, want 300", tr.Len())
		}
		if after, _ := tr.Bounds(); !after.Equal(before) {
			t.Errorf("bounds moved from %v to %v", before, after)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestInsertNearCoordBound: finite coordinates whose areas overflow used
// to panic the split — 2 000 points uniform in [−1e200, 1e200]² made
// every margin +Inf and every overlap sum NaN, no distribution won, and
// chooseSplit grew a slice by −1. Inside the bound, a tree of points and
// of boxes as large as the bound allows builds, shrinks and checks out;
// just outside it, and at 1e200, Insert refuses and the tree is as it
// was.
func TestInsertNearCoordBound(t *testing.T) {
	for _, cfg := range []Config{{Dim: 2, MaxEntries: 8}, {Dim: 8, MaxEntries: 8}} {
		tr := mustTree(t, cfg)
		b := tr.CoordBound()
		rnd := rand.New(rand.NewSource(3))
		coord := func() float64 { return (2*rnd.Float64() - 1) * b }
		rects := make([]geom.Rect, 2000)
		for i := range rects {
			r := geom.Rect{Lo: make(geom.Point, cfg.Dim), Hi: make(geom.Point, cfg.Dim)}
			for a := range r.Lo {
				switch {
				case i%100 == 0: // the largest box there is
					r.Lo[a], r.Hi[a] = -b, b
				case i%10 == 0:
					x, y := coord(), coord()
					r.Lo[a], r.Hi[a] = min(x, y), max(x, y)
				default:
					r.Lo[a] = coord()
					r.Hi[a] = r.Lo[a]
				}
			}
			if err := tr.Insert(r, ObjectID(i)); err != nil {
				t.Fatalf("%d-d: insert %d inside the bound %g: %v", cfg.Dim, i, b, err)
			}
			rects[i] = r
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%d-d: %v", cfg.Dim, err)
		}
		for i := 0; i < len(rects); i += 3 {
			if !tr.Delete(rects[i], ObjectID(i)) {
				t.Fatalf("%d-d: delete of live object %d failed", cfg.Dim, i)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%d-d: %v", cfg.Dim, err)
		}

		before, size := tr.Bounds()
		n := tr.Len()
		above := math.Nextafter(b, math.Inf(1))
		for _, x := range []float64{above, -above, 1e200, -1e200} {
			for axis := 0; axis < cfg.Dim; axis++ {
				p := make(geom.Point, cfg.Dim)
				p[axis] = x
				if err := tr.InsertPoint(p, 9999); err == nil {
					t.Errorf("%d-d: Insert accepted %g on axis %d, bound %g", cfg.Dim, x, axis, b)
				}
			}
		}
		if after, _ := tr.Bounds(); !size || tr.Len() != n || !after.Equal(before) {
			t.Errorf("%d-d: refused inserts changed the tree: %d objects, bounds %v, want %d, %v",
				cfg.Dim, tr.Len(), after, n, before)
		}
	}
}

// TestInsertAllocBudget: an insert that overflows nothing allocates the
// rectangle it stores, a new rectangle for each ancestor entry whose
// MBR it moved, and now and then a larger backing for its leaf — at
// most height + 1 allocations, fewer than 2 on average — and nothing
// per level, per sibling or per comparison. Before the scratch moved
// onto the Tree the same insert made about 20.
func TestInsertAllocBudget(t *testing.T) {
	for _, c := range []struct{ dim, maxEntries int }{
		{2, 92}, // the benchmark's tree
		{8, 28},
	} {
		tr := mustTree(t, Config{Dim: c.dim, MaxEntries: c.maxEntries})
		pts := randPoints(31, 4400, c.dim)
		next := 0
		insert := func() {
			if err := tr.InsertPoint(pts[next], ObjectID(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < 4000 {
			insert()
		}
		var plain, total, worst float64
		for next < len(pts) {
			// AllocsPerRun(1, f) runs f twice and measures the second
			// run; both must be plain inserts (no forced reinsertion, no
			// split) for the number to mean anything.
			pages, overflowed := tr.store.Len(), false
			allocs := testing.AllocsPerRun(1, func() {
				insert()
				overflowed = overflowed || slices.Contains(tr.reinserted, true)
			})
			if overflowed || tr.store.Len() != pages {
				continue
			}
			plain++
			total += allocs
			worst = max(worst, allocs)
		}
		if plain < 150 {
			t.Fatalf("dim %d: only %.0f plain inserts measured", c.dim, plain)
		}
		if budget := float64(tr.Height() + 1); worst > budget {
			t.Errorf("dim %d: a plain insert allocated %.0f times, budget %.0f", c.dim, worst, budget)
		}
		if mean := total / plain; mean >= 2 {
			t.Errorf("dim %d: plain inserts allocate %.2f times on average, want < 2", c.dim, mean)
		}
	}
}
