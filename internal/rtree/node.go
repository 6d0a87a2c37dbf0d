// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider &
// Seeger (SIGMOD 1990) — ChooseSubtree, topological split and forced
// reinsertion — extended, as in Papadopoulos & Manolopoulos (SIGMOD 1998,
// Section 2.1), so that every directory entry carries the number of data
// objects stored in its subtree. The counts feed Lemma 1 of that paper:
// they let a similarity-search algorithm derive an upper bound for the
// k-th nearest-neighbor distance before any data page has been read.
//
// Nodes correspond one-to-one to disk pages. The tree accesses nodes
// through a Store, so the same implementation runs over a plain in-memory
// store, a serializing page store, or a store distributed across the
// disks of a simulated array (package parallel).
package rtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
)

// PageID identifies a tree node / disk page. Valid IDs are positive;
// NilPage marks "no page".
type PageID int32

// NilPage is the zero PageID, never assigned to a node.
const NilPage PageID = 0

// ObjectID identifies a data object referenced from a leaf entry.
type ObjectID int64

// Entry is one slot of a node. In internal nodes Child points to the
// covered subtree and Count is the number of data objects below it. In
// leaf nodes Object identifies the data object, Child is NilPage and
// Count is 1.
//
// When the tree is configured as an SR-tree variant (Config.UseSpheres),
// every entry additionally carries a bounding sphere centered at the
// centroid of the subtree's points; query algorithms then intersect the
// rectangle and sphere bounds, which prunes markedly better in high
// dimensionality. Sphere.Valid() is false on plain R*-tree entries.
type Entry struct {
	Rect   geom.Rect
	Sphere geom.Sphere
	Child  PageID
	Object ObjectID
	Count  int
}

// LeafEntry builds a leaf entry for an object with the given MBR.
func LeafEntry(r geom.Rect, obj ObjectID) Entry {
	return Entry{Rect: r, Object: obj, Count: 1}
}

// Node is an R*-tree node. Level 0 is the leaf level; the root has the
// highest level. A node with Level > 0 holds child entries, a node with
// Level == 0 holds object entries.
type Node struct {
	ID      PageID
	Level   int
	Entries []Entry

	// flat caches the struct-of-arrays geometry view consumed by the
	// batch distance kernels; see Flat/InvalidateFlat in flat.go. The
	// atomic pointer makes lazy builds safe from concurrent readers
	// (the engine shares resident supernodes across query goroutines).
	flat atomic.Pointer[FlatNode]
}

// IsLeaf reports whether the node is at the leaf level.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of all entries. It panics
// on an empty node: an empty node has no defined MBR and must never be
// referenced by a parent.
func (n *Node) MBR() geom.Rect {
	if len(n.Entries) == 0 {
		panic(fmt.Sprintf("rtree: MBR of empty node %d", n.ID))
	}
	r := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		r.UnionInPlace(e.Rect)
	}
	return r
}

// MBRInto writes the node's MBR into dst, which must have the node's
// dimensionality — MBR without the allocation, value for value.
func (n *Node) MBRInto(dst geom.Rect) {
	if len(n.Entries) == 0 {
		panic(fmt.Sprintf("rtree: MBR of empty node %d", n.ID))
	}
	copy(dst.Lo, n.Entries[0].Rect.Lo)
	copy(dst.Hi, n.Entries[0].Rect.Hi)
	for i := 1; i < len(n.Entries); i++ {
		dst.UnionInPlace(n.Entries[i].Rect)
	}
}

// ObjectCount returns the total number of data objects in the subtree
// rooted at this node, i.e. the sum of entry counts.
func (n *Node) ObjectCount() int {
	c := 0
	for _, e := range n.Entries {
		c += e.Count
	}
	return c
}

// Pages returns the number of disk pages the node occupies given the
// per-page entry capacity: 1 for ordinary nodes, more for X-tree
// supernodes.
func (n *Node) Pages(capacity int) int {
	if capacity <= 0 || len(n.Entries) <= capacity {
		return 1
	}
	return (len(n.Entries) + capacity - 1) / capacity
}

// entryIndex returns the index of the entry pointing to child, or -1.
func (n *Node) entryIndex(child PageID) int {
	for i, e := range n.Entries {
		if e.Child == child {
			return i
		}
	}
	return -1
}

// removeEntry deletes the entry at index i, preserving order of the rest.
func (n *Node) removeEntry(i int) {
	n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
	n.InvalidateFlat()
}

// Store provides node storage. Implementations must return the same
// *Node for a PageID until Update/Free, i.e. they behave like a buffer
// pool pinning every accessed page (the simulated machines in the paper
// hold the working set of directory pages in RAM; timing of physical
// reads is modelled separately by the query executors).
type Store interface {
	// Get fetches a node by ID; it panics on unknown IDs (a corrupt
	// parent pointer is a programming error, not an I/O condition).
	Get(id PageID) *Node
	// Allocate creates an empty node at the given level with a fresh ID.
	Allocate(level int) *Node
	// Update persists a modified node.
	Update(n *Node)
	// Free releases a node's page.
	Free(id PageID)
	// Len returns the number of live nodes.
	Len() int
}

// OpTrace records the distinct pages read and written by one structural
// operation (insert/delete). The disk-array simulator uses it to charge
// update operations their real I/O in mixed read/write workloads — the
// paper's target environment is dynamic, with insertions intermixed
// with queries (§1).
type OpTrace struct {
	Reads  []PageID
	Writes []PageID
}

// tracingStore wraps a Store and records traffic while armed.
type tracingStore struct {
	inner  Store
	armed  bool
	reads  map[PageID]bool
	writes map[PageID]bool
}

func (s *tracingStore) Get(id PageID) *Node {
	if s.armed && !s.reads[id] {
		s.reads[id] = true
	}
	return s.inner.Get(id)
}

func (s *tracingStore) Allocate(level int) *Node {
	n := s.inner.Allocate(level)
	if s.armed {
		s.writes[n.ID] = true
	}
	return n
}

func (s *tracingStore) Update(n *Node) {
	if s.armed {
		s.writes[n.ID] = true
	}
	s.inner.Update(n)
}

func (s *tracingStore) Free(id PageID) {
	if s.armed {
		s.writes[id] = true
	}
	s.inner.Free(id)
}

func (s *tracingStore) Len() int { return s.inner.Len() }

// MemStore is the trivial in-memory Store.
type MemStore struct {
	nodes  map[PageID]*Node
	nextID PageID
}

// NewMemStore returns an empty in-memory node store.
func NewMemStore() *MemStore {
	return &MemStore{nodes: make(map[PageID]*Node), nextID: 1}
}

// Get implements Store.
func (s *MemStore) Get(id PageID) *Node {
	n, ok := s.nodes[id]
	if !ok {
		panic(fmt.Sprintf("rtree: unknown page %d", id))
	}
	return n
}

// Allocate implements Store.
func (s *MemStore) Allocate(level int) *Node {
	n := &Node{ID: s.nextID, Level: level}
	s.nextID++
	s.nodes[n.ID] = n
	return n
}

// Update implements Store. Callers mutate the node in place, so the
// in-memory store has nothing to persist — but the mutation invalidates
// the node's cached flat geometry view.
func (s *MemStore) Update(n *Node) { n.InvalidateFlat() }

// Free implements Store.
func (s *MemStore) Free(id PageID) { delete(s.nodes, id) }

// Len implements Store.
func (s *MemStore) Len() int { return len(s.nodes) }
