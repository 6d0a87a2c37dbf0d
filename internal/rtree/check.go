package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// CheckInvariants validates the structural invariants of the tree and
// returns the first violation found, or nil. It verifies:
//
//  1. every parent entry's MBR equals the exact cover of its child bit
//     for bit (−0 and +0 differ, as they do in the page image),
//  2. every parent entry's Count equals the child's subtree object count
//     (the SIGMOD'98 modification this reproduction depends on),
//  3. all leaves sit at level 0 and depth is uniform (height balance),
//  4. non-root nodes respect the minimum fill, no node exceeds capacity
//     (each at its level's: leaves and directory nodes have their own),
//  5. the recorded tree size matches the number of leaf entries,
//  6. levels decrease by exactly one per step down,
//  7. with Config.PointLeaves, every leaf entry is a point (Lo = Hi).
//
// In SR mode (Config.UseSpheres) it additionally verifies that every
// directory entry's sphere covers every data point in its subtree.
//
// It is exported (rather than test-local) so integration tests in other
// packages can assert tree health after builds and mixed workloads.
func (t *Tree) CheckInvariants() error {
	root := t.store.Get(t.root)
	if root.Level != t.height-1 {
		return fmt.Errorf("root level %d != height-1 %d", root.Level, t.height-1)
	}
	count, err := t.checkNode(root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("leaf entries %d != recorded size %d", count, t.size)
	}
	if t.cfg.UseSpheres && t.size > 0 {
		if _, err := t.checkSpheres(root); err != nil {
			return err
		}
	}
	return nil
}

// checkSpheres verifies sphere containment bottom-up and returns all
// data-point centers in the subtree.
func (t *Tree) checkSpheres(n *Node) ([]geom.Point, error) {
	if n.IsLeaf() {
		pts := make([]geom.Point, len(n.Entries))
		for i, e := range n.Entries {
			if !e.Sphere.Valid() {
				return nil, fmt.Errorf("leaf %d entry %d: missing sphere in SR mode", n.ID, i)
			}
			pts[i] = e.Rect.Center()
		}
		return pts, nil
	}
	var all []geom.Point
	for i, e := range n.Entries {
		child := t.store.Get(e.Child)
		pts, err := t.checkSpheres(child)
		if err != nil {
			return nil, err
		}
		if !e.Sphere.Valid() {
			return nil, fmt.Errorf("node %d entry %d: missing sphere in SR mode", n.ID, i)
		}
		tol := geom.SphereEps + e.Sphere.Radius*1e-9
		for _, p := range pts {
			if !e.Sphere.Contains(p, tol) {
				return nil, fmt.Errorf("node %d entry %d: sphere (r=%g) misses subtree point %v (dist %g)",
					n.ID, i, e.Sphere.Radius, p, e.Sphere.Center.Dist(p))
			}
		}
		all = append(all, pts...)
	}
	return all, nil
}

func (t *Tree) checkNode(n *Node, isRoot bool) (int, error) {
	if c := t.cfg.capacity(n.Level); len(n.Entries) > c {
		// X-tree supernodes may legitimately exceed one page — but only
		// directory nodes, and only when the variant is enabled.
		if t.cfg.MaxOverlapRatio == 0 || n.IsLeaf() {
			return 0, fmt.Errorf("node %d: %d entries exceeds capacity %d", n.ID, len(n.Entries), c)
		}
	}
	if m := t.cfg.minFill(n.Level); !isRoot && len(n.Entries) < m {
		return 0, fmt.Errorf("node %d: %d entries below minimum %d", n.ID, len(n.Entries), m)
	}
	if isRoot && n.IsLeaf() && t.size == 0 {
		return 0, nil // empty tree: bare root leaf
	}
	if n.IsLeaf() {
		for i, e := range n.Entries {
			if e.Count != 1 {
				return 0, fmt.Errorf("leaf %d entry %d: count %d != 1", n.ID, i, e.Count)
			}
			if e.Child != NilPage {
				return 0, fmt.Errorf("leaf %d entry %d: unexpected child pointer", n.ID, i)
			}
			if t.cfg.PointLeaves && !sameBits(e.Rect.Lo, e.Rect.Hi) {
				return 0, fmt.Errorf("leaf %d entry %d: rectangle %v in a tree of point leaves", n.ID, i, e.Rect)
			}
		}
		return len(n.Entries), nil
	}
	total := 0
	for i, e := range n.Entries {
		child := t.store.Get(e.Child)
		if child.Level != n.Level-1 {
			return 0, fmt.Errorf("node %d entry %d: child level %d, want %d", n.ID, i, child.Level, n.Level-1)
		}
		if mbr := child.MBR(); !sameBits(e.Rect.Lo, mbr.Lo) || !sameBits(e.Rect.Hi, mbr.Hi) {
			return 0, fmt.Errorf("node %d entry %d: stale MBR %v vs child cover %v", n.ID, i, e.Rect, mbr)
		}
		cc, err := t.checkNode(child, false)
		if err != nil {
			return 0, err
		}
		if e.Count != cc {
			return 0, fmt.Errorf("node %d entry %d: count %d != subtree objects %d", n.ID, i, e.Count, cc)
		}
		total += cc
	}
	return total, nil
}

// Stats summarizes the tree's shape for reporting tools.
type Stats struct {
	Height      int
	Nodes       int
	Leaves      int
	Internal    int
	Objects     int
	AvgLeafFill float64 // mean leaf occupancy as a fraction of the leaf capacity
	AvgDirFill  float64 // mean internal occupancy, of the directory capacity
	Bounds      geom.Rect
}

// ComputeStats walks the tree and returns shape statistics.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Height: t.height, Objects: t.size}
	var leafEntries, dirEntries int
	t.Walk(func(n *Node, _ int) bool {
		s.Nodes++
		if n.IsLeaf() {
			s.Leaves++
			leafEntries += len(n.Entries)
		} else {
			s.Internal++
			dirEntries += len(n.Entries)
		}
		return true
	})
	if s.Leaves > 0 {
		s.AvgLeafFill = float64(leafEntries) / float64(s.Leaves*t.cfg.LeafMaxEntries)
	}
	if s.Internal > 0 {
		s.AvgDirFill = float64(dirEntries) / float64(s.Internal*t.cfg.MaxEntries)
	}
	if b, ok := t.Bounds(); ok {
		s.Bounds = b
	}
	return s
}
