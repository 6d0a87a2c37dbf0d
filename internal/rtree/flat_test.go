package rtree

import (
	"testing"

	"repro/internal/geom"
)

// The view of a live node copies the geometry into columns and nothing
// else: identity and entry-major rectangles are the node's own entries,
// and an update replaces the view.
func TestFlatViewAliasesLiveEntries(t *testing.T) {
	st := NewMemStore()
	n := st.Allocate(1)
	n.Entries = []Entry{
		{Rect: geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4}), Child: 7, Count: 5},
		{Rect: geom.NewRect(geom.Point{5, 6}, geom.Point{7, 8}), Child: 9, Count: 2},
	}
	st.Update(n)
	f := n.Flat()
	if f.ID != n.ID || f.Level != 1 || f.IsLeaf() || f.Len() != 2 {
		t.Fatalf("view header: %+v", f)
	}
	for i, e := range n.Entries {
		if f.Child(i) != e.Child || f.Count(i) != e.Count || f.Object(i) != e.Object {
			t.Errorf("entry %d identity differs", i)
		}
		if r := f.Rect(i); &r.Lo[0] != &e.Rect.Lo[0] || &r.Hi[0] != &e.Rect.Hi[0] {
			t.Errorf("entry %d: Rect copied the node's corners", i)
		}
		if f.Rects.Lo[0][i] != e.Rect.Lo[0] || f.Rects.Hi[1][i] != e.Rect.Hi[1] {
			t.Errorf("entry %d: columns differ from the entry", i)
		}
		if f.Sphere(i).Valid() {
			t.Errorf("entry %d: sphere on a rectangle-only node", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = f.Rect(1) }); allocs != 0 {
		t.Errorf("Rect of a live view allocates %.0f times", allocs)
	}
	n.Entries = n.Entries[:1]
	st.Update(n)
	if g := n.Flat(); g == f || g.Len() != 1 {
		t.Errorf("update kept the stale view")
	}
}
