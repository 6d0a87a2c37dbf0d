package rtree

import (
	"repro/internal/geom"
)

// Delete removes one object with the given MBR and ObjectID. It returns
// false when no matching entry exists. Underfull nodes on the deletion
// path are dissolved and their entries reinserted at their original
// level (Guttman's CondenseTree), and the root is collapsed when it is
// internal with a single child.
func (t *Tree) Delete(r geom.Rect, obj ObjectID) bool {
	orphans, ok := t.remove(r, obj)
	if !ok {
		return false
	}
	// Reinsert orphans, deepest level first so subtree entries find
	// parents at the right height.
	for _, o := range orphans {
		t.insertTopLevel(o.e, o.level)
	}
	t.collapseRoot()
	return true
}

// remove takes the (r, obj) entry out of its leaf and condenses the
// path, returning the entries of the nodes it dissolved; false when no
// such entry exists.
func (t *Tree) remove(r geom.Rect, obj ObjectID) ([]pendingReinsert, bool) {
	leafID, path := t.findLeaf(t.store.Get(t.root), r, obj, t.w.path[:0])
	if leafID == NilPage {
		return nil, false
	}
	t.w.path = path[:0] // keep the backing for the next Delete; condense only reads path
	leaf := t.store.Get(leafID)
	for i, e := range leaf.Entries {
		if e.Object == obj && e.Rect.Equal(r) {
			leaf.removeEntry(i)
			t.store.Update(leaf)
			break
		}
	}
	t.size--
	return t.condense(path), true
}

// DeletePoint removes a point object.
func (t *Tree) DeletePoint(p geom.Point, obj ObjectID) bool {
	return t.Delete(geom.PointRect(p), obj)
}

// findLeaf locates the leaf containing the (r, obj) entry. It returns
// the leaf's page ID and the root-to-leaf path (inclusive of the leaf).
func (t *Tree) findLeaf(n *Node, r geom.Rect, obj ObjectID, path []PageID) (PageID, []PageID) {
	path = append(path, n.ID)
	if n.IsLeaf() {
		for _, e := range n.Entries {
			if e.Object == obj && e.Rect.Equal(r) {
				return n.ID, path
			}
		}
		return NilPage, nil
	}
	for _, e := range n.Entries {
		if e.Rect.Contains(r) {
			if id, p := t.findLeaf(t.store.Get(e.Child), r, obj, path); id != NilPage {
				return id, p
			}
		}
	}
	return NilPage, nil
}

// condense walks the deletion path bottom-up: underfull non-root nodes
// are removed and their entries returned for reinsertion at their
// levels; surviving nodes get their parent entry's MBR and count
// refreshed.
func (t *Tree) condense(path []PageID) []pendingReinsert {
	var orphans []pendingReinsert
	for i := len(path) - 1; i >= 1; i-- {
		n := t.store.Get(path[i])
		parent := t.store.Get(path[i-1])
		idx := parent.entryIndex(n.ID)
		if idx < 0 {
			// The node was dissolved already (can't happen on a simple
			// path) — defensive.
			continue
		}
		if len(n.Entries) < t.cfg.minFill(n.Level) {
			// Dissolve n: queue its entries for reinsertion at n's level.
			for _, e := range n.Entries {
				orphans = append(orphans, pendingReinsert{e, n.Level})
			}
			parent.removeEntry(idx)
			t.store.Free(n.ID)
			t.listener.NodeFreed(n.ID)
		} else {
			t.refreshEntry(&parent.Entries[idx], n)
		}
		t.store.Update(parent)
	}
	return orphans
}

// collapseRoot collapses a root that is internal with exactly one child.
func (t *Tree) collapseRoot() {
	for {
		root := t.store.Get(t.root)
		if root.IsLeaf() || len(root.Entries) != 1 {
			break
		}
		child := root.Entries[0].Child
		t.store.Free(root.ID)
		t.listener.NodeFreed(root.ID)
		t.root = child
		t.height--
		t.listener.RootChanged(child)
	}
}
