package rtree

import (
	"container/heap"
	"sort"

	"repro/internal/geom"
)

// Match is one search hit: an object and its point, which aliases the
// leaf's and must not be written.
type Match struct {
	Point  geom.Point
	Object ObjectID
}

// SearchRect reports all objects whose point lies in query. The visit
// callback may be nil when only counting matters; it returns false to
// stop early. SearchRect returns the matches and the number of nodes
// accessed.
func (t *Tree) SearchRect(query geom.Rect, visit func(Match) bool) (matches []Match, nodesAccessed int) {
	stack := []PageID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.store.Get(id)
		nodesAccessed++
		for _, e := range n.Entries {
			if !e.Rect.Intersects(query) {
				continue
			}
			if n.IsLeaf() {
				m := Match{Point: e.Rect.Lo, Object: e.Object}
				matches = append(matches, m)
				if visit != nil && !visit(m) {
					return matches, nodesAccessed
				}
			} else {
				stack = append(stack, e.Child)
			}
		}
	}
	return matches, nodesAccessed
}

// SearchSphere reports all objects within distance eps of center (the
// paper's range similarity query, Definition 1): every object whose
// point lies in the epsilon-ball.
func (t *Tree) SearchSphere(center geom.Point, eps float64, visit func(Match) bool) (matches []Match, nodesAccessed int) {
	epsSq := eps * eps
	stack := []PageID{t.root}
	var dmin []float64
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.store.Get(id)
		nodesAccessed++
		if cap(dmin) < len(n.Entries) {
			dmin = make([]float64, len(n.Entries))
		}
		d := dmin[:len(n.Entries)]
		geom.MinDistSqBatch(center, &n.Flat().Rects, d)
		for i, e := range n.Entries {
			if d[i] > epsSq {
				continue
			}
			if n.IsLeaf() {
				m := Match{Point: e.Rect.Lo, Object: e.Object}
				matches = append(matches, m)
				if visit != nil && !visit(m) {
					return matches, nodesAccessed
				}
			} else {
				stack = append(stack, e.Child)
			}
		}
	}
	return matches, nodesAccessed
}

// Neighbor is one k-NN result: the object and its squared distance from
// the query point.
type Neighbor struct {
	Match
	DistSq float64
}

// nnHeapItem is a best-first search frontier element.
type nnHeapItem struct {
	distSq float64
	isNode bool
	page   PageID
	match  Match
}

type nnHeap []nnHeapItem

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].distSq < h[j].distSq }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(nnHeapItem)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NearestNeighbors returns the k nearest objects to q by Euclidean
// distance, using best-first (Hjaltason–Samet style) traversal. This is
// the tree's own sequential k-NN used as a reference implementation; the
// disk-array algorithms of the paper live in package query. Results are
// ordered by increasing distance. The second return value is the number
// of nodes accessed.
func (t *Tree) NearestNeighbors(q geom.Point, k int) ([]Neighbor, int) {
	if k <= 0 {
		return nil, 0
	}
	var frontier nnHeap
	heap.Push(&frontier, nnHeapItem{distSq: 0, isNode: true, page: t.root})
	var out []Neighbor
	var dmin []float64
	nodes := 0
	for frontier.Len() > 0 && len(out) < k {
		it := heap.Pop(&frontier).(nnHeapItem)
		if !it.isNode {
			out = append(out, Neighbor{Match: it.match, DistSq: it.distSq})
			continue
		}
		n := t.store.Get(it.page)
		nodes++
		if cap(dmin) < len(n.Entries) {
			dmin = make([]float64, len(n.Entries))
		}
		d := dmin[:len(n.Entries)]
		geom.MinDistSqBatch(q, &n.Flat().Rects, d)
		for i, e := range n.Entries {
			if n.IsLeaf() {
				heap.Push(&frontier, nnHeapItem{distSq: d[i], match: Match{Point: e.Rect.Lo, Object: e.Object}})
			} else {
				heap.Push(&frontier, nnHeapItem{distSq: d[i], isNode: true, page: e.Child})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DistSq < out[j].DistSq })
	return out, nodes
}

// Walk visits every node of the tree top-down, left-to-right, calling fn
// with each node and its depth (0 at the root). fn returning false stops
// the walk.
func (t *Tree) Walk(fn func(n *Node, depth int) bool) {
	type frame struct {
		id    PageID
		depth int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.store.Get(f.id)
		if !fn(n, f.depth) {
			return
		}
		if !n.IsLeaf() {
			for i := len(n.Entries) - 1; i >= 0; i-- {
				stack = append(stack, frame{n.Entries[i].Child, f.depth + 1})
			}
		}
	}
}
