package parallel_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/simarray"
)

// script inserts pts[from:to] and, after every second insert, deletes
// the oldest object still alive.
func script(t *testing.T, tree *parallel.Tree, pts []geom.Point, from, to int, oldest *int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := tree.InsertPoint(pts[i], rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if !tree.DeletePoint(pts[*oldest], rtree.ObjectID(*oldest)) {
				t.Fatalf("delete of live object %d failed", *oldest)
			}
			*oldest++
		}
	}
}

// arrayState copies the running per-disk statistics a tree keeps in
// its unexported state field.
func arrayState(t *parallel.Tree) decluster.ArrayState {
	st := *(*decluster.ArrayState)(reflect.ValueOf(t).Elem().FieldByName("state").UnsafePointer())
	st.PagesPerDisk = slices.Clone(st.PagesPerDisk)
	st.AreaPerDisk = slices.Clone(st.AreaPerDisk)
	st.Space = st.Space.Clone()
	return st
}

func simulate(t *testing.T, tree *parallel.Tree, queries []geom.Point) simarray.RunResult {
	t.Helper()
	sys, err := simarray.NewSystem(tree, simarray.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(simarray.Workload{Algorithm: query.CRSS{}, K: 10, Queries: queries, ArrivalRate: 20})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReopenKeepsPlacements: a durable tree that is committed, closed
// and reopened comes back with every page on the same disk and
// cylinder and the same array state, simulates the same response times
// bit for bit, and goes on exactly as a tree that was never closed.
func TestReopenKeepsPlacements(t *testing.T) {
	const seed = 1998
	pts := dataset.CaliforniaLike(3000, seed)
	queries := dataset.SampleQueries(pts, 30, seed+1)
	for _, p := range decluster.All(seed) {
		for _, spheres := range []bool{false, true} {
			name := p.Name()
			if spheres {
				name += "/sr"
			}
			t.Run(name, func(t *testing.T) {
				cfg := func(store rtree.Store) parallel.Config {
					pol, err := decluster.ByName(p.Name(), seed)
					if err != nil {
						t.Fatal(err)
					}
					return parallel.Config{Dim: 2, NumDisks: 10, Cylinders: disk.HPC2200A().Cylinders,
						Policy: pol, Seed: seed, UseSpheres: spheres, Store: store}
				}
				live, err := parallel.New(cfg(nil)) // never closed
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				codec := pagestore.Codec{Dim: 2, PageSize: 4096, Spheres: spheres}
				ds, err := pagestore.OpenDurable(dir, codec, pagestore.DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				closed, err := parallel.New(cfg(ds))
				if err != nil {
					t.Fatal(err)
				}
				oldest := 0
				for _, tree := range []*parallel.Tree{live, closed} {
					oldest = 0
					script(t, tree, pts, 0, 2000, &oldest)
				}
				if err := closed.Commit(ds); err != nil {
					t.Fatal(err)
				}
				before := map[rtree.PageID]parallel.Placement{}
				closed.Walk(func(n *rtree.Node, _ int) bool {
					before[n.ID], _ = closed.Placement(n.ID)
					return true
				})
				state := arrayState(closed)
				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}

				if ds, err = pagestore.OpenDurable(dir, codec, pagestore.DurableOptions{}); err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				re, err := parallel.Open(cfg(nil), ds)
				if err != nil {
					t.Fatal(err)
				}
				after := map[rtree.PageID]parallel.Placement{}
				re.Walk(func(n *rtree.Node, _ int) bool {
					after[n.ID], _ = re.Placement(n.ID)
					return true
				})
				if !reflect.DeepEqual(after, before) {
					moved := 0
					for id, pl := range before {
						if after[id] != pl {
							moved++
						}
					}
					t.Fatalf("%d of %d pages came back elsewhere", moved, len(before))
				}
				if got := arrayState(re); !reflect.DeepEqual(got, state) {
					t.Fatalf("array state after reopen %+v, before %+v", got, state)
				}
				if a, b := simulate(t, live, queries), simulate(t, re, queries); !reflect.DeepEqual(a, b) {
					t.Fatalf("simulated mean response %v over the reopened tree, %v over the never-closed one",
						b.MeanResponse, a.MeanResponse)
				}

				// The same further script on both: the same tree, page ids and
				// placements.
				for _, tree := range []*parallel.Tree{live, re} {
					o := oldest
					script(t, tree, pts, 2000, len(pts), &o)
				}
				if a, b := treeHash(live), treeHash(re); a != b {
					t.Fatalf("after the further script: tree hash %s reopened, %s never closed", b, a)
				}
				if err := re.CheckPlacements(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
