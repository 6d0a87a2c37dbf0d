package rtree

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

// The view of a live node copies the geometry into columns and nothing
// else: identity and leaf points are the node's own entries, and an
// update replaces the view.
func TestFlatViewAliasesLiveEntries(t *testing.T) {
	st := NewMemStore()
	n := st.Allocate(1)
	n.Entries = []Entry{
		{Rect: geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4}), Child: 7, Count: 5},
		{Rect: geom.NewRect(geom.Point{5, 6}, geom.Point{7, 8}), Child: 9, Count: 2},
	}
	st.Update(n)
	f := n.Flat()
	if f.ID != n.ID || f.Level != 1 || f.IsLeaf() || f.Len() != 2 || f.Spheres != nil {
		t.Fatalf("view header: %+v", f)
	}
	for i, e := range n.Entries {
		if f.Child(i) != e.Child || f.Count(i) != e.Count || f.Object(i) != e.Object {
			t.Errorf("entry %d identity differs", i)
		}
		if f.Rects.Lo[0][i] != e.Rect.Lo[0] || f.Rects.Hi[1][i] != e.Rect.Hi[1] {
			t.Errorf("entry %d: columns differ from the entry", i)
		}
	}
	n.Entries = n.Entries[:1]
	st.Update(n)
	if g := n.Flat(); g == f || g.Len() != 1 {
		t.Errorf("update kept the stale view")
	}

	leaf := st.Allocate(0)
	leaf.Entries = []Entry{LeafEntry(geom.Point{1, 2}, 3), LeafEntry(geom.Point{4, 5}, 6)}
	st.Update(leaf)
	f = leaf.Flat()
	if &f.Rects.Lo[0][0] != &f.Rects.Hi[0][0] {
		t.Fatal("a leaf's view has two column sets")
	}
	for i, e := range leaf.Entries {
		if f.Object(i) != e.Object || f.Child(i) != NilPage || f.Count(i) != 1 {
			t.Errorf("leaf entry %d identity differs", i)
		}
		if p := f.Point(i); &p[0] != &e.Rect.Lo[0] {
			t.Errorf("leaf entry %d: Point copied the node's point", i)
		}
		if f.Rects.Lo[0][i] != e.Rect.Lo[0] || f.Rects.Lo[1][i] != e.Rect.Lo[1] {
			t.Errorf("leaf entry %d: columns differ from the point", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = f.Point(1) }); allocs != 0 {
		t.Errorf("Point of a live view allocates %.0f times", allocs)
	}
}

// A node whose entries mix present and absent spheres breaks a tree
// invariant; BuildFlat refuses it and names the page.
func TestBuildFlatRefusesMixedSpheres(t *testing.T) {
	n := &Node{ID: 42, Level: 1, Entries: []Entry{
		{Rect: geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4}), Child: 7, Count: 5,
			Sphere: geom.Sphere{Center: geom.Point{2, 3}, Radius: 2}},
		{Rect: geom.NewRect(geom.Point{5, 6}, geom.Point{7, 8}), Child: 9, Count: 2},
	}}
	defer func() {
		p, _ := recover().(string)
		if !strings.Contains(p, "page 42") {
			t.Fatalf("BuildFlat of a mixed node: panic %q, want one naming page 42", p)
		}
	}()
	BuildFlat(n)
}
