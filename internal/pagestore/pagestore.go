// Package pagestore serializes R*-tree nodes to fixed-size disk pages and
// provides a Store implementation backed by those pages. A node occupies
// exactly one page (the paper's assumption: "each node of the tree
// corresponds to one disk page", §2.1, and the RAID-0 striping unit is a
// disk block, §2.2).
//
// The on-page layout is:
//
//	offset 0   uint8   magic (0xA5)
//	offset 1   uint8   version (1 = rect entries, 2 = SR sphere entries)
//	offset 2   uint16  level (0 = leaf)
//	offset 4   uint16  entry count
//	offset 6   uint16  dimension
//	offset 8   uint64  page id
//	offset 16  entries; each entry is
//	           dim*8 bytes float64 lo corner
//	           dim*8 bytes float64 hi corner
//	           8 bytes ref (child page for internal, object id for leaf)
//	           4 bytes uint32 subtree object count
//	           [version 2 only] dim*8 bytes sphere center + 8 bytes radius
//
// The decoded image lives in RAM (the simulated machine holds its
// directory working set in memory; physical read timing is modelled by
// the simulator). The encoded shadow guarantees that every node the tree
// builds actually fits its page and enables snapshot/restore.
package pagestore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

const (
	magic         = 0xA5
	versionRect   = 1 // rectangle-only entries (plain R*-tree)
	versionSphere = 2 // SR layout: entries carry a bounding sphere too
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
// dimensionality. Spheres selects the SR-tree on-page layout, where
// each entry additionally stores a dim-float64 sphere center and a
// float64 radius. Views, when non-nil, is where Decode draws the memory
// of the views it builds from — set by a reader that owns its decoded
// views and returns them (the engine's page cache); everyone else
// leaves it nil and Decode allocates.
type Codec struct {
	Dim      int
	PageSize int
	Spheres  bool
	Views    *rtree.ViewPool
}

// EntrySize returns the on-page size of one entry.
func (c Codec) EntrySize() int {
	n := c.Dim*16 + 12
	if c.Spheres {
		n += c.Dim*8 + 8
	}
	return n
}

func (c Codec) version() byte {
	if c.Spheres {
		return versionSphere
	}
	return versionRect
}

// Capacity returns the number of entries that fit on one page.
func (c Codec) Capacity() int { return (c.PageSize - headerSize) / c.EntrySize() }

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
	buf[1] = c.version()
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint16(buf[6:], uint16(c.Dim))
	binary.LittleEndian.PutUint64(buf[8:], uint64(n.ID))
	off := headerSize
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.Rect.Dim() != c.Dim {
			return nil, fmt.Errorf("pagestore: node %d entry %d: dim %d, codec dim %d",
				n.ID, i, e.Rect.Dim(), c.Dim)
		}
		for d := 0; d < c.Dim; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Lo[d]))
			off += 8
		}
		for d := 0; d < c.Dim; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Hi[d]))
			off += 8
		}
		var ref uint64
		if n.IsLeaf() {
			ref = uint64(e.Object)
		} else {
			ref = uint64(e.Child)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
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
	if len(n.Entries) > c.Capacity() {
		return fmt.Errorf("pagestore: node %d: %d entries exceed page capacity %d",
			n.ID, len(n.Entries), c.Capacity())
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
	if buf[1] != c.version() {
		return pageHeader{}, fmt.Errorf("pagestore: page version %d, codec expects %d", buf[1], c.version())
	}
	h := pageHeader{
		level: int(binary.LittleEndian.Uint16(buf[2:])),
		count: int(binary.LittleEndian.Uint16(buf[4:])),
	}
	if dim := int(binary.LittleEndian.Uint16(buf[6:])); dim != c.Dim {
		return pageHeader{}, fmt.Errorf("pagestore: page dim %d, codec dim %d", dim, c.Dim)
	}
	if h.count > c.Capacity() {
		return pageHeader{}, fmt.Errorf("pagestore: entry count %d exceeds capacity %d", h.count, c.Capacity())
	}
	if need := headerSize + h.count*c.EntrySize(); len(buf) < need {
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
	dim, size := c.Dim, c.EntrySize()
	f, refs := rtree.NewPageView(c.Views, h.id, h.level, dim, h.count, c.Spheres)
	entries := buf[headerSize : headerSize+h.count*size]
	for a := 0; a < dim && h.count > 0; a++ {
		fillColumn(f.Rects.Lo[a], entries, 8*a, size)
		fillColumn(f.Rects.Hi[a], entries, 8*(dim+a), size)
	}
	for i, off := 0, 16*dim; i < len(refs); i, off = i+1, off+size {
		ref := binary.LittleEndian.Uint64(entries[off:])
		if h.level != 0 {
			if _, err := pageRef(ref); err != nil {
				return nil, err
			}
		}
		refs[i] = rtree.PageRef{Ref: int64(ref), Count: binary.LittleEndian.Uint32(entries[off+8:])}
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
	per := 2 * dim
	if c.Spheres {
		per += dim
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
		e.Rect.Hi, off = point(off)
		ref := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		e.Count = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if c.Spheres {
			e.Sphere.Center, off = point(off)
			e.Sphere.Radius = float64At(buf, off)
			off += 8
		}
		if h.level == 0 {
			e.Object = rtree.ObjectID(ref)
		} else if e.Child, err = pageRef(ref); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// PagedStore is an rtree.Store whose nodes shadow into encoded
// fixed-size pages on every Update. The decoded working set stays in
// memory; the encoded image proves page-fit and supports Snapshot.
//
// A readers-writer lock makes the store safe for concurrent readers
// (Get, Page, Len) alongside each other and serializes mutations
// (Allocate, Update, Free) — the concurrent query engine reads pages
// from many goroutines at once. Mutating while reads are in flight is
// safe at the store level, though returned *Node values are shared and
// must not be read while tree structural operations rewrite them.
type PagedStore struct {
	mu     sync.RWMutex
	codec  Codec
	nodes  map[rtree.PageID]*rtree.Node // guarded by mu
	pages  map[rtree.PageID][]byte      // guarded by mu
	nextID rtree.PageID                 // guarded by mu

	encodes uint64 // write-backs performed; guarded by mu
	bytes   int    // total encoded bytes held; guarded by mu
}

// NewPagedStore creates a store for pages of the given size and
// dimensionality (rectangle-only layout). It panics if even a minimal
// node cannot fit, mirroring rtree's capacity floor.
func NewPagedStore(pageSize, dim int) *PagedStore {
	return NewPagedStoreEx(pageSize, dim, false)
}

// NewPagedStoreEx creates a store with the SR-tree sphere layout when
// spheres is true.
func NewPagedStoreEx(pageSize, dim int, spheres bool) *PagedStore {
	c := Codec{Dim: dim, PageSize: pageSize, Spheres: spheres}
	if c.Capacity() < 4 {
		panic(fmt.Sprintf("pagestore: page size %d too small for dim %d (capacity %d < 4)",
			pageSize, dim, c.Capacity()))
	}
	return &PagedStore{
		codec:  c,
		nodes:  make(map[rtree.PageID]*rtree.Node),
		pages:  make(map[rtree.PageID][]byte),
		nextID: 1,
	}
}

// Codec returns the store's codec.
func (s *PagedStore) Codec() Codec { return s.codec }

// Get implements rtree.Store.
func (s *PagedStore) Get(id rtree.PageID) *rtree.Node {
	s.mu.RLock()
	n, ok := s.nodes[id]
	s.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("pagestore: unknown page %d", id))
	}
	return n
}

// Allocate implements rtree.Store.
func (s *PagedStore) Allocate(level int) *rtree.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &rtree.Node{ID: s.nextID, Level: level}
	s.nextID++
	s.nodes[n.ID] = n
	return n
}

// Update implements rtree.Store: the node is re-encoded into its page.
// Encoding failure (node overflow beyond page capacity) panics — it
// means the tree was configured with a capacity larger than the page
// holds, a programming error surfaced as early as possible.
func (s *PagedStore) Update(n *rtree.Node) {
	// Invalidate and encode under the write lock: a split rewrites the
	// node's entries in place, and concurrent ReadPage decoders must
	// never observe the store mid-write-back.
	s.mu.Lock()
	defer s.mu.Unlock()
	n.InvalidateFlat()
	buf, err := s.codec.Encode(n)
	if err != nil {
		panic(err)
	}
	if old, ok := s.pages[n.ID]; ok {
		s.bytes -= len(old)
	}
	s.pages[n.ID] = buf
	s.bytes += len(buf)
	s.encodes++
}

// Free implements rtree.Store.
func (s *PagedStore) Free(id rtree.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.nodes, id)
	if old, ok := s.pages[id]; ok {
		s.bytes -= len(old)
		delete(s.pages, id)
	}
}

// Len implements rtree.Store.
func (s *PagedStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// ReadPage implements Reader: the page's encoded image is decoded into
// a fresh view. Unlike Get it performs a physical decode and returns an
// error (not a panic) for pages without an image, which is what the
// degraded-mode read path needs. The decoded page's self-declared ID
// must match the requested page: a mismatch means a misdirected read (a
// valid page served from the wrong address) and surfaces as a typed
// *IntegrityError instead of a silently wrong page.
func (s *PagedStore) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	s.mu.RLock()
	buf, ok := s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pagestore: page %d has no encoded image", id)
	}
	return decodeChecked(s.codec, id, buf)
}

// Page returns a copy of the encoded image of a page (nil when the node
// was never updated). Callers get their own buffer: the internal image
// is the shadow VerifyShadow audits, and handing it out by reference
// would let a caller corrupt the evidence.
func (s *PagedStore) Page(id rtree.PageID) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	buf, ok := s.pages[id]
	if !ok {
		return nil
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// Encodes returns the number of write-backs performed.
func (s *PagedStore) Encodes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.encodes
}

// Bytes returns the total encoded bytes held.
func (s *PagedStore) Bytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// VerifyShadow re-decodes every encoded page and checks it matches the
// in-memory node. Used by tests and by treestat as a consistency audit.
func (s *PagedStore) VerifyShadow() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, n := range s.nodes {
		buf, ok := s.pages[id]
		if !ok {
			// Never updated since allocation; an empty node is legal
			// only for a fresh root.
			if len(n.Entries) != 0 {
				return fmt.Errorf("pagestore: page %d has entries but no encoded image", id)
			}
			continue
		}
		if err := verifyShadowNode(s.codec, n, buf); err != nil {
			return err
		}
	}
	return nil
}

// verifyShadowNode checks one node against its encoded shadow image.
// Geometry compares bitwise (Float64bits, not geometric tolerance): the
// shadow is a codec round trip of the exact in-memory floats, so any
// difference at all — including a NaN payload or a -0/+0 flip — is
// corruption, not numeric noise.
func verifyShadowNode(codec Codec, n *rtree.Node, buf []byte) error {
	dec, err := codec.DecodeNode(buf)
	if err != nil {
		return fmt.Errorf("pagestore: page %d: %v", n.ID, err)
	}
	if dec.ID != n.ID || dec.Level != n.Level || len(dec.Entries) != len(n.Entries) {
		return fmt.Errorf("pagestore: page %d: shadow header mismatch", n.ID)
	}
	for i := range n.Entries {
		a, b := n.Entries[i], dec.Entries[i]
		if !rectBitsEqual(a.Rect, b.Rect) || a.Child != b.Child || a.Object != b.Object || a.Count != b.Count {
			return fmt.Errorf("pagestore: page %d entry %d: shadow mismatch", n.ID, i)
		}
		if codec.Spheres {
			if !pointBitsEqual(a.Sphere.Center, b.Sphere.Center) ||
				math.Float64bits(a.Sphere.Radius) != math.Float64bits(b.Sphere.Radius) {
				return fmt.Errorf("pagestore: page %d entry %d: sphere shadow mismatch", n.ID, i)
			}
		}
	}
	return nil
}

// pointBitsEqual reports exact bit-level equality of two coordinate
// vectors (IEEE-754 bit patterns, so NaNs compare by payload and
// -0 != +0 — stricter than geometric equality, which is the point).
func pointBitsEqual(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rectBitsEqual is pointBitsEqual over both corners.
func rectBitsEqual(a, b geom.Rect) bool {
	return pointBitsEqual(a.Lo, b.Lo) && pointBitsEqual(a.Hi, b.Hi)
}
