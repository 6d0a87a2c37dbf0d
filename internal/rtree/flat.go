package rtree

import (
	"sync/atomic"

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
// axis-major slab, one compact identity array, no Entry per slot. What
// Rect and Sphere hand out for a decoded page depends on who owns the
// view. A view nobody recycles is expected to stay (a cache that holds
// the tree, a store's working set): its entry-major coordinates are
// gathered from the slab once, on the first call, and published through
// an atomic pointer. A view drawn from a ViewPool (Pooled) is a frame:
// its memory is refilled once its owner has seen the last hold on it
// dropped, so nothing that outlives the hold may alias it. Rect and
// Sphere copy the one entry asked for into memory of their own; a
// reader that has somewhere to keep the copy uses CopyRect.
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
	// MixedSpheres is true when some but not all entries carry spheres
	// — impossible for codec-encoded nodes but reachable with hand-built
	// ones. Consumers must fall back to the per-entry scalar path so the
	// sphere tightening stays bit-identical with the scalar semantics.
	MixedSpheres bool

	entries []Entry   // view of a live node: alias of Node.Entries
	refs    []PageRef // decoded page: the identity column
	sph     geom.SphereSoA
	// aos is a decoded page's entry-major coordinate slab (lo, hi and,
	// in the sphere layout, center per entry), nil until the first Rect
	// or Sphere call. Immutable once published.
	aos atomic.Pointer[[]float64]
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

// NewPageView returns the view of a decoded page of m entries with its
// identity column; the decoder fills that column and the SoA columns
// (Rects, and Spheres when spheres is set) before it lets the view out
// of its hands. An empty page has no columns, like the view of an empty
// node. The view's memory is drawn from pool; a nil pool allocates it.
func NewPageView(pool *ViewPool, id PageID, level, dim, m int, spheres bool) (*FlatNode, []PageRef) {
	if pool != nil {
		return pool.newPageView(id, level, dim, m, spheres)
	}
	f := &FlatNode{ID: id, Level: level}
	if m == 0 {
		return f, nil
	}
	f.refs = make([]PageRef, m)
	f.allocColumns(dim, m, spheres)
	return f, f.refs
}

// columnCounts returns how many float64 columns of one entry each the
// SoA layout has — the rectangle axes (lo, hi interleaved per axis),
// then the sphere center axes and the radii — and how many of them need
// a column header (the radii are a plain slice).
func columnCounts(dim int, spheres bool) (cols, hdrs int) {
	if spheres {
		return 3*dim + 1, 3 * dim
	}
	return 2 * dim, 2 * dim
}

// allocColumns backs the SoA columns of m entries with one slab and one
// array of column headers.
func (f *FlatNode) allocColumns(dim, m int, spheres bool) {
	cols, hdrs := columnCounts(dim, spheres)
	f.setColumns(make([]float64, cols*m), make([][]float64, hdrs), dim, m, spheres)
}

// setColumns cuts the SoA columns of m entries out of slab (at least
// cols*m long) and hdr (exactly hdrs long).
func (f *FlatNode) setColumns(slab []float64, hdr [][]float64, dim, m int, spheres bool) {
	col := func(j int) []float64 { return slab[j*m : (j+1)*m : (j+1)*m] }
	for a := 0; a < dim; a++ {
		hdr[a], hdr[dim+a] = col(2*a), col(2*a+1)
	}
	f.Rects = geom.RectSoA{Lo: hdr[:dim:dim], Hi: hdr[dim : 2*dim : 2*dim]}
	if spheres {
		for a := 0; a < dim; a++ {
			hdr[2*dim+a] = col(2*dim + a)
		}
		f.sph = geom.SphereSoA{Center: hdr[2*dim:], Radius: col(3 * dim)}
		f.Spheres = &f.sph
	}
}

// BuildFlat constructs the view of a live node. The node's entries must
// share one dimensionality (a tree invariant). The view aliases
// n.Entries, so it is valid only until the node is next mutated — which
// is when Node.Flat drops it.
func BuildFlat(n *Node) *FlatNode {
	m := len(n.Entries)
	f := &FlatNode{ID: n.ID, Level: n.Level, entries: n.Entries}
	if m == 0 {
		return f
	}
	dim := n.Entries[0].Rect.Dim()
	withSphere := 0
	for i := range n.Entries {
		if n.Entries[i].Sphere.Valid() {
			withSphere++
		}
	}
	f.allocColumns(dim, m, withSphere == m)
	f.MixedSpheres = withSphere != 0 && withSphere != m
	for i := range n.Entries {
		e := &n.Entries[i]
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

// Rect returns entry i's MBR in entry-major form. The corners may be
// shared memory — the live node's, or the page's gathered slab — and
// must not be written; they never alias memory a ViewPool refills (a
// pooled view allocates the copy: see CopyRect for a reader that brings
// the memory).
func (f *FlatNode) Rect(i int) geom.Rect {
	if f.entries != nil {
		return f.entries[i].Rect
	}
	return f.gatheredRect(i)
}

// CopyRect copies entry i's MBR out of the columns into c — dim low
// corners, then dim high corners: how a reader keeps a rectangle of a
// pooled view past its hold on the view.
func (f *FlatNode) CopyRect(i int, c []float64) {
	dim := f.Rects.Dim()
	for a := 0; a < dim; a++ {
		c[a], c[dim+a] = f.Rects.Lo[a][i], f.Rects.Hi[a][i]
	}
}

// Sphere returns entry i's bounding sphere (the invalid zero Sphere
// when the page carries none), shared like Rect's corners.
func (f *FlatNode) Sphere(i int) geom.Sphere {
	if f.entries != nil {
		return f.entries[i].Sphere
	}
	return f.gatheredSphere(i)
}

// gatheredRect and gatheredSphere are the decoded page's half of Rect
// and Sphere, apart so that the live half inlines into the executions.
func (f *FlatNode) gatheredRect(i int) geom.Rect {
	dim := f.Rects.Dim()
	if f.owner != nil {
		c := make([]float64, 2*dim)
		f.CopyRect(i, c)
		return geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
	}
	c := f.entryMajor()[i*f.stride():]
	return geom.Rect{Lo: c[:dim:dim], Hi: c[dim : 2*dim : 2*dim]}
}

func (f *FlatNode) gatheredSphere(i int) geom.Sphere {
	if f.Spheres == nil {
		return geom.Sphere{}
	}
	dim := f.Rects.Dim()
	if f.owner != nil {
		c := make([]float64, dim)
		for a := range c {
			c[a] = f.sph.Center[a][i]
		}
		return geom.Sphere{Center: c, Radius: f.sph.Radius[i]}
	}
	c := f.entryMajor()[i*f.stride():]
	return geom.Sphere{Center: c[2*dim : 3*dim : 3*dim], Radius: f.sph.Radius[i]}
}

// stride is the number of entry-major coordinates per entry.
func (f *FlatNode) stride() int {
	if f.Spheres != nil {
		return 3 * f.Rects.Dim()
	}
	return 2 * f.Rects.Dim()
}

// entryMajor returns the entry-major coordinates of a decoded page that
// no pool owns, gathering them from the columns on first use. Racing first callers
// each gather; one slab is published and all of them return it.
func (f *FlatNode) entryMajor() []float64 {
	if p := f.aos.Load(); p != nil {
		return *p
	}
	dim, m, per := f.Rects.Dim(), len(f.refs), f.stride()
	g := make([]float64, m*per)
	for a := 0; a < dim; a++ {
		lo, hi := f.Rects.Lo[a], f.Rects.Hi[a]
		for i := 0; i < m; i++ {
			g[i*per+a], g[i*per+dim+a] = lo[i], hi[i]
		}
		if f.Spheres != nil {
			for i, c := range f.sph.Center[a] {
				g[i*per+2*dim+a] = c
			}
		}
	}
	if !f.aos.CompareAndSwap(nil, &g) {
		return *f.aos.Load()
	}
	return g
}

// Flat returns the node's flat view, building and caching it on first
// use. The cache is dropped whenever the node is mutated (every
// structural mutation flows through Store.Update or removeEntry).
// Concurrent first calls may build duplicate views; that race is benign
// — the views are identical and the last store wins — which is what the
// engine's shared resident supernodes rely on.
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
