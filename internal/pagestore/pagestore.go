// Package pagestore serializes R*-tree nodes to fixed-size disk pages and
// stores those pages: FileStore is one drive's page file, DurableStore
// the crash-safe rtree.Store over it. A node occupies
// exactly one page (the paper's assumption: "each node of the tree
// corresponds to one disk page", §2.1, and the RAID-0 striping unit is a
// disk block, §2.2).
//
// The on-page layout is:
//
//	offset 0   uint8   magic (0xA5)
//	offset 1   uint8   version (1 = rect entries, 2 = SR sphere entries,
//	                   3 = point entries)
//	offset 2   uint16  level (0 = leaf)
//	offset 4   uint16  entry count
//	offset 6   uint16  dimension
//	offset 8   uint64  page id
//	offset 16  entries; a version 1 or 2 entry is
//	           dim*8 bytes float64 lo corner
//	           dim*8 bytes float64 hi corner
//	           8 bytes child page
//	           4 bytes uint32 subtree object count
//	           [version 2 only] dim*8 bytes sphere center + 8 bytes radius
//	           and a version 3 entry is
//	           dim*8 bytes float64 point
//	           8 bytes object id
//
// Every leaf is version 3: a point and its object id, 8·dim + 8 bytes,
// where the paper stores the point as a degenerate rectangle with a
// count that is always 1 (16·dim + 12 bytes) — 56 entries on a 4 KiB
// page at 8-d instead of 29. Directory pages are version 1, and version
// 2 in an SR tree. The paper's leaf capacity is the directory's,
// Capacity(1).
package pagestore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
)

const (
	magic         = 0xA5
	versionRect   = 1 // directory: rectangle-only entries (plain R*-tree)
	versionSphere = 2 // SR directory: entries carry a bounding sphere too
	versionPoint  = 3 // leaf: a point and an object id
	headerSize    = 16
)

// Reader resolves one page into its read-only view. It is the seam the
// fault-injection layer (package fault) and the replicated read path of
// the concurrent engine wrap: a Reader may be a raw per-disk page
// store, an injected store that fails or delays reads, or a mirror set
// that redirects between them. Implementations must be safe for
// concurrent use.
type Reader interface {
	ReadPage(id rtree.PageID) (*rtree.FlatNode, error)
}

// Codec encodes and decodes nodes for a fixed page size and
// dimensionality. Spheres selects the SR-tree directory layout, where
// each directory entry additionally stores a dim-float64 sphere center
// and a float64 radius. A leaf holds points (version 3) either way.
// Views, when non-nil, is where Decode
// draws the memory of the views it builds from — set by a reader that
// owns its decoded views and returns them (the engine's page cache);
// everyone else leaves it nil and Decode allocates.
type Codec struct {
	Dim      int
	PageSize int
	Spheres  bool
	Views    *rtree.ViewPool
}

// EntrySize returns the on-page size of one entry of a page at level.
func (c Codec) EntrySize(level int) int {
	switch {
	case level == 0:
		return c.Dim*8 + 8
	case c.Spheres:
		return c.Dim*16 + 12 + c.Dim*8 + 8 // a directory entry and its sphere
	}
	return c.Dim*16 + 12
}

func (c Codec) version(level int) byte {
	switch {
	case level == 0:
		return versionPoint
	case c.Spheres:
		return versionSphere
	}
	return versionRect
}

// Capacity returns the number of entries that fit on one page at level.
func (c Codec) Capacity(level int) int { return (c.PageSize - headerSize) / c.EntrySize(level) }

// Encode serializes n into a fresh page-sized buffer. It fails when the
// node holds more entries than fit on a page or an entry has the wrong
// dimensionality.
func (c Codec) Encode(n *rtree.Node) ([]byte, error) {
	return c.EncodeInto(nil, n)
}

// EncodeInto is Encode into buf when buf can hold a page, and into a
// fresh buffer when it cannot; it returns the page. Whatever buf held
// before is overwritten to the last byte — the bytes after the last
// entry are zeroed — so the result equals Encode's byte for byte. On an
// error the contents of buf are undefined.
func (c Codec) EncodeInto(buf []byte, n *rtree.Node) ([]byte, error) {
	if err := c.checkCapacity(n); err != nil {
		return nil, err
	}
	if cap(buf) < c.PageSize {
		buf = make([]byte, c.PageSize)
	}
	buf = buf[:c.PageSize]
	buf[0] = magic
	buf[1] = c.version(n.Level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint16(buf[6:], uint16(c.Dim))
	binary.LittleEndian.PutUint64(buf[8:], uint64(n.ID))
	off := headerSize
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.Rect.Dim() != c.Dim || len(e.Rect.Hi) != c.Dim {
			return nil, fmt.Errorf("pagestore: node %d entry %d: dim %d, codec dim %d",
				n.ID, i, e.Rect.Dim(), c.Dim)
		}
		if n.IsLeaf() {
			// A leaf stores each entry's point once: Lo and Hi must be
			// one point, and the count is 1 by definition.
			for d := 0; d < c.Dim; d++ {
				lo := math.Float64bits(e.Rect.Lo[d])
				if lo != math.Float64bits(e.Rect.Hi[d]) || e.Count != 1 {
					return nil, fmt.Errorf("pagestore: node %d entry %d: %v (count %d) is no point: a leaf holds points",
						n.ID, i, e.Rect, e.Count)
				}
				binary.LittleEndian.PutUint64(buf[off:], lo)
				off += 8
			}
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.Object))
			off += 8
			continue
		}
		for d := 0; d < c.Dim; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Lo[d]))
			off += 8
		}
		for d := 0; d < c.Dim; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Hi[d]))
			off += 8
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(e.Child))
		off += 8
		if e.Count < 0 || e.Count > math.MaxUint32 {
			return nil, fmt.Errorf("pagestore: node %d entry %d: count %d out of range", n.ID, i, e.Count)
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.Count))
		off += 4
		if c.Spheres {
			if !e.Sphere.Valid() || e.Sphere.Center.Dim() != c.Dim {
				return nil, fmt.Errorf("pagestore: node %d entry %d: missing or mismatched sphere", n.ID, i)
			}
			for d := 0; d < c.Dim; d++ {
				binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Sphere.Center[d]))
				off += 8
			}
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Sphere.Radius))
			off += 8
		}
	}
	clear(buf[off:])
	return buf, nil
}

// checkCapacity fails when n holds more entries than fit on a page.
func (c Codec) checkCapacity(n *rtree.Node) error {
	if m := c.Capacity(n.Level); len(n.Entries) > m {
		return fmt.Errorf("pagestore: node %d: %d entries exceed page capacity %d", n.ID, len(n.Entries), m)
	}
	return nil
}

// pageHeader is the validated fixed part of a page image.
type pageHeader struct {
	id    rtree.PageID
	level int
	count int
}

// header validates everything about a page image that does not depend
// on the entries. The image must be exactly one page: a short buffer is
// a torn read, and a long one is a misdirected or overlapping read —
// both are integrity faults, not layouts to tolerate.
func (c Codec) header(buf []byte) (pageHeader, error) {
	if len(buf) != c.PageSize {
		return pageHeader{}, fmt.Errorf("pagestore: page image is %d bytes, want page size %d", len(buf), c.PageSize)
	}
	if len(buf) < headerSize {
		return pageHeader{}, fmt.Errorf("pagestore: page too short: %d bytes", len(buf))
	}
	if buf[0] != magic {
		return pageHeader{}, fmt.Errorf("pagestore: bad magic 0x%02x", buf[0])
	}
	h := pageHeader{
		level: int(binary.LittleEndian.Uint16(buf[2:])),
		count: int(binary.LittleEndian.Uint16(buf[4:])),
	}
	if v := c.version(h.level); buf[1] != v {
		return pageHeader{}, fmt.Errorf("pagestore: level-%d page version %d, codec expects %d", h.level, buf[1], v)
	}
	if dim := int(binary.LittleEndian.Uint16(buf[6:])); dim != c.Dim {
		return pageHeader{}, fmt.Errorf("pagestore: page dim %d, codec dim %d", dim, c.Dim)
	}
	if m := c.Capacity(h.level); h.count > m {
		return pageHeader{}, fmt.Errorf("pagestore: entry count %d exceeds capacity %d", h.count, m)
	}
	if need := headerSize + h.count*c.EntrySize(h.level); len(buf) < need {
		return pageHeader{}, fmt.Errorf("pagestore: page truncated: %d bytes, need %d for %d entries",
			len(buf), need, h.count)
	}
	var err error
	h.id, err = pageRef(binary.LittleEndian.Uint64(buf[8:]))
	return h, err
}

// pageRef narrows a stored 64-bit page id or child reference to a
// PageID. The format stores 64 bits and a PageID has 32, so a value
// outside 1..MaxInt32 cannot name a page: it is rejected here, before
// any identity check could compare its truncation and pass.
func pageRef(raw uint64) (rtree.PageID, error) {
	if raw < 1 || raw > math.MaxInt32 {
		return rtree.NilPage, &IntegrityError{Raw: raw}
	}
	return rtree.PageID(raw), nil
}

func float64At(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// fillColumn gathers one float64 field of every entry into dst: the
// field of entry i sits at entries[off+i*stride].
func fillColumn(dst []float64, entries []byte, off, stride int) {
	for i := range dst {
		dst[i] = float64At(entries, off)
		off += stride
	}
}

// Decode builds the read-only view of a page straight from its image —
// the decoder of the read path: every Reader in this package, the
// engine's replicas and its page cache carry what it returns. Each
// field of the image is read once, into the axis-major columns the
// batch kernels read or the compact identity column; no rtree.Node and
// no per-entry slices exist on this path. All image checks are those of
// DecodeNode. With Codec.Views set the view's memory is recycled; every
// column is refilled, and a view abandoned on a failed check is the
// collector's.
func (c Codec) Decode(buf []byte) (*rtree.FlatNode, error) {
	h, err := c.header(buf)
	if err != nil {
		return nil, err
	}
	dim, size := c.Dim, c.EntrySize(h.level)
	entries := buf[headerSize : headerSize+h.count*size]
	if h.level == 0 {
		f, refs := rtree.NewPageView(c.Views, h.id, h.level, dim, h.count, rtree.PointColumns)
		for a := 0; a < dim && h.count > 0; a++ {
			fillColumn(f.Rects.Lo[a], entries, 8*a, size)
		}
		for i, off := 0, 8*dim; i < len(refs); i, off = i+1, off+size {
			refs[i] = rtree.PageRef{Ref: int64(binary.LittleEndian.Uint64(entries[off:])), Count: 1}
		}
		return f, nil
	}
	cols := rtree.RectColumns
	if c.Spheres {
		cols = rtree.SphereColumns
	}
	f, refs := rtree.NewPageView(c.Views, h.id, h.level, dim, h.count, cols)
	for a := 0; a < dim && h.count > 0; a++ {
		fillColumn(f.Rects.Lo[a], entries, 8*a, size)
		fillColumn(f.Rects.Hi[a], entries, 8*(dim+a), size)
	}
	for i, off := 0, 16*dim; i < len(refs); i, off = i+1, off+size {
		child, err := pageRef(binary.LittleEndian.Uint64(entries[off:]))
		if err != nil {
			return nil, err
		}
		refs[i] = rtree.PageRef{Ref: int64(child), Count: binary.LittleEndian.Uint32(entries[off+8:])}
	}
	if s := f.Spheres; s != nil {
		for a := 0; a < dim; a++ {
			fillColumn(s.Center[a], entries, 16*dim+12+8*a, size)
		}
		fillColumn(s.Radius, entries, 24*dim+12, size)
	}
	return f, nil
}

// DecodeNode reconstructs a full, mutable node from a page image — the
// write side's decoder: recovery rebuilds the working set with it, and
// the shadow audits and snapshot loading compare or adopt whole nodes.
// It accepts exactly the images Decode accepts.
func (c Codec) DecodeNode(buf []byte) (*rtree.Node, error) {
	h, err := c.header(buf)
	if err != nil {
		return nil, err
	}
	dim := c.Dim
	n := &rtree.Node{ID: h.id, Level: h.level, Entries: make([]rtree.Entry, h.count)}
	// One coordinate slab per page, not two or three slices per entry.
	// Each point is a capacity-capped sub-slice, so an append to one can
	// never run into its neighbour.
	per := dim // a leaf's points
	if h.level != 0 {
		per = 2 * dim
		if c.Spheres {
			per = 3 * dim
		}
	}
	slab := make([]float64, h.count*per)
	point := func(off int) (geom.Point, int) {
		p := slab[:dim:dim]
		slab = slab[dim:]
		for d := range p {
			p[d] = float64At(buf, off)
			off += 8
		}
		return p, off
	}
	off := headerSize
	for i := range n.Entries {
		e := &n.Entries[i]
		e.Rect.Lo, off = point(off)
		if h.level == 0 {
			// A point stored once, as a leaf keeps it.
			e.Rect.Hi, e.Count = e.Rect.Lo, 1
			e.Object = rtree.ObjectID(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			continue
		}
		e.Rect.Hi, off = point(off)
		if e.Child, err = pageRef(binary.LittleEndian.Uint64(buf[off:])); err != nil {
			return nil, err
		}
		off += 8
		e.Count = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if c.Spheres {
			e.Sphere.Center, off = point(off)
			e.Sphere.Radius = float64At(buf, off)
			off += 8
		}
	}
	return n, nil
}
