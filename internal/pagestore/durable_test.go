package pagestore

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

const durableTestPage = 512

func durableCodec() Codec { return Codec{Dim: 2, PageSize: durableTestPage} }

func openDurableT(t *testing.T, dir string, counters *obs.StorageCounters) *DurableStore {
	t.Helper()
	ds, err := OpenDurable(dir, durableCodec(), DurableOptions{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func treeOver(t *testing.T, store rtree.Store) *rtree.Tree {
	t.Helper()
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity()}, store)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameKNN asserts bit-identical k-NN results (object AND distance).
func sameKNN(t *testing.T, label string, a, b *rtree.Tree, q geom.Point, k int) {
	t.Helper()
	ra, _ := a.NearestNeighbors(q, k)
	rb, _ := b.NearestNeighbors(q, k)
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d results", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Object != rb[i].Object ||
			math.Float64bits(ra[i].DistSq) != math.Float64bits(rb[i].DistSq) {
			t.Fatalf("%s: result %d differs: %v/%x vs %v/%x",
				label, i, ra[i].Object, math.Float64bits(ra[i].DistSq),
				rb[i].Object, math.Float64bits(rb[i].DistSq))
		}
	}
}

// Build, commit, checkpoint, reopen: the restored tree is the committed
// tree, bit for bit.
func TestDurableStoreReopen(t *testing.T) {
	dir := t.TempDir()
	var counters obs.StorageCounters
	ds := openDurableT(t, dir, &counters)
	tr := treeOver(t, ds)
	model := treeOver(t, rtree.NewMemStore())

	rnd := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{rnd.Float64() * 1000, rnd.Float64() * 1000}
		for _, tree := range []*rtree.Tree{tr, model} {
			if err := tree.InsertPoint(pts[i], rtree.ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
				t.Fatal(err)
			}
		}
		if i == 199 {
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Deletes survive recovery too.
	for i := 0; i < 100; i++ {
		if !tr.DeletePoint(pts[i], rtree.ObjectID(i)) || !model.DeletePoint(pts[i], rtree.ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurableT(t, dir, &counters)
	defer ds2.Close()
	meta := ds2.Meta()
	if meta.Size != model.Len() {
		t.Fatalf("recovered size %d, want %d", meta.Size, model.Len())
	}
	tr2, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity()},
		ds2, meta.Root, meta.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ds2.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{500, 500}, {0, 0}, {999, 1}} {
		sameKNN(t, "recovered vs model", tr2, model, q, 10)
	}
	s := counters.Snapshot()
	if s.Recoveries != 1 || s.ReplayedRecords == 0 || s.Checkpoints != 1 || s.WALSyncs == 0 {
		t.Errorf("counters = %+v", s)
	}
}

// Mutations staged after the last commit are invisible after reopen —
// the uncommitted tail is discarded, not replayed.
func TestDurableStoreUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	tr := treeOver(t, ds)
	for i := 0; i < 50; i++ {
		if err := tr.InsertPoint(geom.Point{float64(i), float64(i)}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ { // staged, never committed
		if err := tr.InsertPoint(geom.Point{float64(i), float64(i)}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	ds2 := openDurableT(t, dir, nil)
	defer ds2.Close()
	if got := ds2.Meta().Size; got != 50 {
		t.Errorf("recovered size %d, want 50 (uncommitted inserts leaked)", got)
	}
}

// A fresh store that never committed recovers to an empty tree.
func TestDurableStoreFreshIsEmpty(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	ds.Close()
	ds2 := openDurableT(t, dir, nil)
	defer ds2.Close()
	if m := ds2.Meta(); m.Root != 0 || m.Size != 0 {
		t.Errorf("fresh store recovered to %+v", m)
	}
}

// Epoch isolation: a snapshotted view stays bit-stable while inserts
// and deletes commit concurrently. Run with -race; this is the
// torn-split gate — a reader must never observe a parent/child pair
// from different commits.
func TestDurableStoreEpochIsolation(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	defer ds.Close()
	tr := treeOver(t, ds)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if err := tr.InsertPoint(geom.Point{rnd.Float64() * 100, rnd.Float64() * 100}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}

	view := ds.Snapshot().WithCache(64, 4)
	wantRoot, wantSize, wantPages := view.Root(), view.Size(), view.Pages()

	// walkView counts objects reachable from the view's root and checks
	// every parent/child edge resolves inside the epoch.
	walkView := func() int {
		var count int
		var rec func(id rtree.PageID)
		rec = func(id rtree.PageID) {
			n, err := view.ReadPage(id)
			if err != nil {
				t.Errorf("view read %d: %v", id, err)
				return
			}
			for i := 0; i < n.Len(); i++ {
				if n.IsLeaf() {
					count++
				} else {
					rec(n.Child(i))
				}
			}
		}
		rec(view.Root())
		return count
	}
	if got := walkView(); got != wantSize {
		t.Fatalf("view walk found %d objects, size says %d", got, wantSize)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if view.Root() != wantRoot || view.Size() != wantSize || view.Pages() != wantPages {
					t.Error("pinned view drifted during concurrent commits")
					return
				}
				if got := walkView(); got != wantSize {
					t.Errorf("view walk found %d objects mid-commit, want %d", got, wantSize)
					return
				}
			}
		}()
	}
	for i := 200; i < 600; i++ {
		if err := tr.InsertPoint(geom.Point{rnd.Float64() * 100, rnd.Float64() * 100}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// A fresh snapshot sees the new state.
	after := ds.Snapshot()
	if after.Size() != tr.Len() {
		t.Errorf("fresh snapshot size %d, want %d", after.Size(), tr.Len())
	}
}

// The committed-epoch reader hides staged writes until Commit.
func TestDurableStoreReadPageSeesOnlyCommitted(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	defer ds.Close()
	tr := treeOver(t, ds)
	if err := tr.InsertPoint(geom.Point{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ReadPage(tr.Root()); err == nil {
		t.Error("ReadPage served an uncommitted page")
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	n, err := ds.ReadPage(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != tr.Root() {
		t.Errorf("ReadPage returned node %d, want root %d", n.ID, tr.Root())
	}
}
