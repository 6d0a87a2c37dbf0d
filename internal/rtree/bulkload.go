package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// BulkLoadSTR replaces the contents of an empty tree with a packed tree
// built by Sort-Tile-Recursive (Leutenegger, López & Edgington, ICDE
// 1997). The paper's setting is dynamic, so its trees are built by
// one-by-one insertion and "complete reorganization of the database ...
// is prohibited" (§1); bulk loading exists here to *quantify* what that
// reorganization would buy — the packing ablation compares query cost
// on incremental vs packed trees.
//
// Packing proceeds bottom-up: the objects are tiled into full leaves (at
// the leaf capacity) by recursive slab sorting, then each level's nodes are tiled the same
// way by their MBR centers until one root remains. The structural
// listener fires for every created page, so declustering policies place
// packed pages exactly like split-created ones.
func (t *Tree) BulkLoadSTR(items []Entry) error {
	if t.size != 0 {
		return fmt.Errorf("rtree: BulkLoadSTR requires an empty tree, have %d objects", t.size)
	}
	for i := range items {
		if err := t.checkRect(items[i].Rect); err != nil {
			return fmt.Errorf("rtree: item %d: %w", i, err)
		}
		items[i].Rect = t.leafRect(items[i].Rect)
		items[i].Count = 1
		items[i].Child = NilPage
		if t.cfg.UseSpheres && !items[i].Sphere.Valid() {
			c := items[i].Rect.Center()
			items[i].Sphere = geom.Sphere{Center: c, Radius: c.Dist(items[i].Rect.Hi)}
		}
	}
	if len(items) == 0 {
		return nil
	}

	oldRoot := t.root

	level := 0
	entries := items
	for {
		if len(entries) <= t.cfg.capacity(level) {
			// Final level: one root node.
			root := t.store.Allocate(level)
			// Copy: tiling yields subslices of a shared backing array,
			// and node entry slices must be independently growable.
			root.Entries = append([]Entry(nil), entries...)
			t.store.Update(root)
			t.listener.NodeCreated(root, t.coverOf(root), nil)
			// Release the placeholder root the constructor made.
			t.store.Free(oldRoot)
			t.listener.NodeFreed(oldRoot)
			t.root = root.ID
			t.height = level + 1
			t.size = len(items)
			t.listener.RootChanged(root.ID)
			return nil
		}
		groups := strTile(entries, t.cfg.capacity(level), t.cfg.Dim, 0)
		groups = fixMinFill(groups, t.cfg.minFill(level), t.cfg.capacity(level))
		next := make([]Entry, 0, len(groups))
		for _, g := range groups {
			n := t.store.Allocate(level)
			n.Entries = append([]Entry(nil), g...)
			t.store.Update(n)
			// Report with the trailing window of same-level pages as
			// siblings: under STR those are the spatial neighbors a
			// declustering policy wants to scatter.
			e := t.entryFor(n)
			t.listener.NodeCreated(n, e.Rect, next[max(0, len(next)-16):])
			next = append(next, e)
		}
		entries = next
		level++
	}
}

// strTile splits entries into groups of at most capacity using the STR
// tiling: sort by the current axis, cut into ceil(P^(1/remaining))
// slabs, recurse within each slab on the next axis.
func strTile(entries []Entry, capacity, dim, axis int) [][]Entry {
	n := len(entries)
	if n <= capacity {
		return [][]Entry{entries}
	}
	pages := int(math.Ceil(float64(n) / float64(capacity)))
	remaining := dim - axis
	if remaining <= 1 {
		// Last axis: straight run packing.
		sortByCenter(entries, axis)
		return chunk(entries, capacity)
	}
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	sortByCenter(entries, axis)
	slabSize := (n + slabs - 1) / slabs
	var out [][]Entry
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		out = append(out, strTile(entries[start:end], capacity, dim, axis+1)...)
	}
	return out
}

func sortByCenter(entries []Entry, axis int) {
	sort.SliceStable(entries, func(i, j int) bool {
		ci := entries[i].Rect.Lo[axis] + entries[i].Rect.Hi[axis]
		cj := entries[j].Rect.Lo[axis] + entries[j].Rect.Hi[axis]
		return ci < cj
	})
}

// chunk cuts entries into capacity-sized groups.
func chunk(entries []Entry, capacity int) [][]Entry {
	var out [][]Entry
	n := len(entries)
	for start := 0; start < n; start += capacity {
		end := start + capacity
		if end > n {
			end = n
		}
		out = append(out, entries[start:end])
	}
	return out
}

// fixMinFill rebalances the tiled groups so every one satisfies the
// minimum fill (slab remainders can leave short tail groups). Adjacent
// groups are spatial neighbors under STR, so borrowing from the
// predecessor barely perturbs locality.
func fixMinFill(groups [][]Entry, min, capacity int) [][]Entry {
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		if len(g) >= min {
			continue
		}
		prev := groups[i-1]
		need := min - len(g)
		if len(prev)-need >= min {
			// Borrow the predecessor's tail.
			cut := len(prev) - need
			merged := append(append([]Entry(nil), prev[cut:]...), g...)
			groups[i-1] = prev[:cut]
			groups[i] = merged
		} else if len(prev)+len(g) <= capacity {
			// Merge the two neighbors outright.
			groups[i-1] = append(append([]Entry(nil), prev...), g...)
			groups = append(groups[:i], groups[i+1:]...)
			i--
		}
	}
	return groups
}
