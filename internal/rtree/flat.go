package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// FlatNode is the read-only form of a page that every query execution
// consumes: the page's identity, its entries' geometry laid out
// struct-of-arrays — the input format of the batch distance kernels in
// package geom, entry i's MBR spanning Rects.Lo[a][i]..Rects.Hi[a][i]
// on axis a — and per-entry accessors for what the kernels do not read
// (child pages, object ids, counts, and the entry-major rectangle a
// result carries).
//
// There are two builders. BuildFlat (behind Node.Flat) views a live
// node: the geometry is copied into the SoA slab, identity and
// entry-major rectangles alias Node.Entries. pagestore.Codec.Decode
// builds the view straight from a page image through NewPageView: one
// axis-major slab, one compact identity array, no Entry per slot. Only
// a live node's view lends out its rectangles and spheres (Live). Rect
// and Sphere on a decoded view copy the one entry asked for into memory
// of their own: a view drawn from a ViewPool is a frame, refilled once
// its owner has seen the last hold on it dropped. A reader that has
// somewhere to keep the copy uses CopyRect.
//
// The view of a point leaf (PointColumns) is one column set: Rects.Hi
// holds the same slices as Rects.Lo, entry i the point
// (Rects.Lo[0][i], …), and the leaf kernel reads it once (Points).
//
// A FlatNode is immutable from the moment it is built until its owner,
// if it has one, hands it back to the pool (see ViewPool).
type FlatNode struct {
	ID    PageID
	Level int
	// Rects is the SoA view of every entry's MBR.
	Rects geom.RectSoA
	// Spheres is non-nil iff every entry carries a valid bounding
	// sphere (the SR-tree layout guarantees this for encoded nodes; see
	// pagestore.Codec.Encode). When nil, entries have no spheres.
	Spheres *geom.SphereSoA

	entries []Entry   // view of a live node: alias of Node.Entries
	refs    []PageRef // decoded page: the identity column
	sph     geom.SphereSoA
	// owner is the pooled memory this view is part of; nil for a view
	// the collector owns (every live-node view, every pool-less decode).
	owner *pageView
}

// PageRef is the identity of one entry of a decoded page: the child
// page (directory levels) or the object (leaf level) it refers to, and
// the number of data objects below it.
type PageRef struct {
	Ref   int64
	Count uint32
}

// Columns names the column sets of a view: what one entry of the page
// holds.
type Columns uint8

const (
	// RectColumns: a rectangle per entry, low and high corners.
	RectColumns Columns = iota
	// SphereColumns: a rectangle and a bounding sphere per entry (the
	// SR-tree layout).
	SphereColumns
	// PointColumns: a point per entry, one column set that is both
	// corners (a point leaf).
	PointColumns
)

// NewPageView returns the view of a decoded page of m entries with its
// identity column; the decoder fills that column and the SoA columns
// (Rects — only Rects.Lo for PointColumns — and Spheres for
// SphereColumns) before it lets the view out of its hands. An empty
// page has no columns, like the view of an empty node. The view's
// memory is drawn from pool; a nil pool allocates it.
func NewPageView(pool *ViewPool, id PageID, level, dim, m int, cols Columns) (*FlatNode, []PageRef) {
	if pool != nil {
		return pool.newPageView(id, level, dim, m, cols)
	}
	f := &FlatNode{ID: id, Level: level}
	if m == 0 {
		return f, nil
	}
	f.refs = make([]PageRef, m)
	f.allocColumns(dim, m, cols)
	return f, f.refs
}

// columnCounts returns how many float64 columns of one entry each the
// SoA layout has — the rectangle axes (lo, hi interleaved per axis) or
// the point axes, then the sphere center axes and the radii — and how
// many of them need a column header (the radii are a plain slice).
func columnCounts(dim int, c Columns) (cols, hdrs int) {
	switch c {
	case SphereColumns:
		return 3*dim + 1, 3 * dim
	case PointColumns:
		return dim, dim
	}
	return 2 * dim, 2 * dim
}

// allocColumns backs the SoA columns of m entries with one slab and one
// array of column headers.
func (f *FlatNode) allocColumns(dim, m int, c Columns) {
	cols, hdrs := columnCounts(dim, c)
	f.setColumns(make([]float64, cols*m), make([][]float64, hdrs), dim, m, c)
}

// setColumns cuts the SoA columns of m entries out of slab (at least
// cols*m long) and hdr (at least hdrs long).
func (f *FlatNode) setColumns(slab []float64, hdr [][]float64, dim, m int, c Columns) {
	col := func(j int) []float64 { return slab[j*m : (j+1)*m : (j+1)*m] }
	if c == PointColumns {
		for a := 0; a < dim; a++ {
			hdr[a] = col(a)
		}
		f.Rects = geom.RectSoA{Lo: hdr[:dim:dim], Hi: hdr[:dim:dim]}
		return
	}
	for a := 0; a < dim; a++ {
		hdr[a], hdr[dim+a] = col(2*a), col(2*a+1)
	}
	f.Rects = geom.RectSoA{Lo: hdr[:dim:dim], Hi: hdr[dim : 2*dim : 2*dim]}
	if c == SphereColumns {
		for a := 0; a < dim; a++ {
			hdr[2*dim+a] = col(2*dim + a)
		}
		f.sph = geom.SphereSoA{Center: hdr[2*dim:], Radius: col(3 * dim)}
		f.Spheres = &f.sph
	}
}

// BuildFlat constructs the view of a live node. The node's entries must
// share one dimensionality, and either all or none of them carry a
// sphere (tree invariants, which CheckInvariants enforces); it panics,
// naming the page, on a node that mixes the two. A leaf whose every
// entry is a point stored once — Rect.Hi the same slice as Rect.Lo, as
// a tree of point leaves stores them (Config.PointLeaves) — and carries
// no sphere gets one column set (PointColumns). The view aliases
// n.Entries, so it is valid only until the node is next mutated — which
// is when Node.Flat drops it.
func BuildFlat(n *Node) *FlatNode {
	m := len(n.Entries)
	f := &FlatNode{ID: n.ID, Level: n.Level, entries: n.Entries}
	if m == 0 {
		return f
	}
	dim := n.Entries[0].Rect.Dim()
	withSphere, points := 0, 0
	for i := range n.Entries {
		r := &n.Entries[i].Rect
		if n.Entries[i].Sphere.Valid() {
			withSphere++
		}
		if len(r.Lo) > 0 && len(r.Hi) > 0 && &r.Lo[0] == &r.Hi[0] {
			points++
		}
	}
	if withSphere != 0 && withSphere != m {
		panic(fmt.Sprintf("rtree: page %d mixes entries with and without spheres (%d of %d)", n.ID, withSphere, m))
	}
	cols := RectColumns
	switch {
	case withSphere == m:
		cols = SphereColumns
	case n.Level == 0 && points == m:
		cols = PointColumns
	}
	f.allocColumns(dim, m, cols)
	for i := range n.Entries {
		e := &n.Entries[i]
		if cols == PointColumns {
			for a := 0; a < dim; a++ {
				f.Rects.Lo[a][i] = e.Rect.Lo[a]
			}
			continue
		}
		for a := 0; a < dim; a++ {
			f.Rects.Lo[a][i] = e.Rect.Lo[a]
			f.Rects.Hi[a][i] = e.Rect.Hi[a]
		}
		if f.Spheres != nil {
			for a := 0; a < dim; a++ {
				f.sph.Center[a][i] = e.Sphere.Center[a]
			}
			f.sph.Radius[i] = e.Sphere.Radius
		}
	}
	return f
}

// Len returns the number of entries.
func (f *FlatNode) Len() int {
	if f.entries != nil {
		return len(f.entries)
	}
	return len(f.refs)
}

// IsLeaf reports whether the page is at the leaf level.
func (f *FlatNode) IsLeaf() bool { return f.Level == 0 }

// Child returns the page entry i points to (NilPage in a leaf).
func (f *FlatNode) Child(i int) PageID {
	if f.entries != nil {
		return f.entries[i].Child
	}
	if f.Level == 0 {
		return NilPage
	}
	return PageID(f.refs[i].Ref)
}

// Object returns the data object of leaf entry i (0 in a directory
// page).
func (f *FlatNode) Object(i int) ObjectID {
	if f.entries != nil {
		return f.entries[i].Object
	}
	if f.Level != 0 {
		return 0
	}
	return ObjectID(f.refs[i].Ref)
}

// Count returns the number of data objects below entry i.
func (f *FlatNode) Count(i int) int {
	if f.entries != nil {
		return f.entries[i].Count
	}
	return int(f.refs[i].Count)
}

// Points reports whether f is the view of a point leaf: one column set,
// Rects.Hi the same slices as Rects.Lo, which geom.MinDistSqBatch hands
// to the point kernel (geom.PointDistSqBatch).
func (f *FlatNode) Points() bool {
	return len(f.Rects.Lo) > 0 && &f.Rects.Lo[0] == &f.Rects.Hi[0]
}

// Live reports whether f views a live node (BuildFlat), whose
// rectangles and spheres Rect and Sphere lend out; an empty view has
// nothing to lend either way.
func (f *FlatNode) Live() bool { return f.entries != nil }

// Rect returns entry i's MBR in entry-major form. A live node's view
// lends the node's corners, which must not be written; a decoded view
// allocates a copy (see CopyRect for a reader that brings the memory).
func (f *FlatNode) Rect(i int) geom.Rect {
	if f.entries != nil {
		return f.entries[i].Rect
	}
	return f.copiedRect(i)
}

// CopyRect copies entry i's MBR out of the columns into c — dim low
// corners, then dim high corners: how a reader keeps a rectangle of a
// decoded view.
func (f *FlatNode) CopyRect(i int, c []float64) {
	dim := f.Rects.Dim()
	for a := 0; a < dim; a++ {
		c[a], c[dim+a] = f.Rects.Lo[a][i], f.Rects.Hi[a][i]
	}
}

// Sphere returns entry i's bounding sphere (the invalid zero Sphere
// when the page carries none), lent or copied like Rect's corners.
func (f *FlatNode) Sphere(i int) geom.Sphere {
	if f.entries != nil {
		return f.entries[i].Sphere
	}
	return f.copiedSphere(i)
}

// copiedRect and copiedSphere are the decoded page's half of Rect and
// Sphere, apart so that the live half inlines into the executions.
func (f *FlatNode) copiedRect(i int) geom.Rect {
	dim := f.Rects.Dim()
	if f.Points() {
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = f.Rects.Lo[a][i]
		}
		return geom.PointRect(p)
	}
	c := make([]float64, 2*dim)
	f.CopyRect(i, c)
	return geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
}

func (f *FlatNode) copiedSphere(i int) geom.Sphere {
	if f.Spheres == nil {
		return geom.Sphere{}
	}
	c := make([]float64, f.Rects.Dim())
	for a := range c {
		c[a] = f.sph.Center[a][i]
	}
	return geom.Sphere{Center: c, Radius: f.sph.Radius[i]}
}

// Flat returns the node's flat view, building and caching it on first
// use. The cache is dropped whenever the node is mutated (every
// structural mutation flows through Store.Update or removeEntry).
// Concurrent first calls may build duplicate views; that race is benign
// — the views are identical and the last store wins — which is what the
// engine's shared pinned directory relies on.
func (n *Node) Flat() *FlatNode {
	if f := n.flat.Load(); f != nil {
		return f
	}
	f := BuildFlat(n)
	n.flat.Store(f)
	return f
}

// InvalidateFlat drops the cached flat view after a mutation. Store
// implementations call it from Update; in-place entry edits that bypass
// Update must call it directly.
func (n *Node) InvalidateFlat() { n.flat.Store(nil) }
