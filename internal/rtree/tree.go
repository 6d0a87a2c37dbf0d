package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Listener observes structural changes to the tree. The parallel layer
// uses it to assign newly created pages to disks (declustering) at the
// moment the paper prescribes: "upon a split ... the newly created page"
// is placed relative to its sibling pages.
type Listener interface {
	// NodeCreated fires when a node comes into existence. siblings holds
	// the page IDs of the nodes that share (or will share) the new node's
	// parent, excluding the node itself; it is empty for a new root.
	NodeCreated(n *Node, siblings []PageID)
	// NodeFreed fires when a page is released.
	NodeFreed(id PageID)
	// RootChanged fires when the root page changes.
	RootChanged(root PageID)
}

// nopListener is used when the caller installs no listener.
type nopListener struct{}

func (nopListener) NodeCreated(*Node, []PageID) {}
func (nopListener) NodeFreed(PageID)            {}
func (nopListener) RootChanged(PageID)          {}

// Config controls tree geometry.
type Config struct {
	Dim        int // dimensionality of indexed rectangles
	MaxEntries int // node capacity M
	MinEntries int // minimum fill m (0 means 40% of M, the R* default)
	// ReinsertFraction is the share of M+1 entries removed by forced
	// reinsertion (0 means the R* default of 30%).
	ReinsertFraction float64
	// UseSpheres turns the tree into an SR-tree variant (Katayama &
	// Satoh, SIGMOD 1997): every entry additionally maintains a
	// bounding sphere centered at its subtree's point centroid, the
	// descent follows nearest centroids, and queries intersect the
	// rectangle and sphere bounds. Spheres consume page space, so the
	// fanout shrinks (see CapacityForPageEx).
	UseSpheres bool
	// MaxOverlapRatio enables the X-tree variant (Berchtold, Keim &
	// Kriegel, VLDB 1996): when splitting a directory node would
	// produce groups whose MBRs overlap by more than this Jaccard
	// fraction, the split is refused and the node grows into a
	// supernode spanning multiple disk pages (reading it costs
	// ceil(entries/capacity) sequential page transfers — accounted by
	// the query layer via Node.Pages). 0 disables the behavior; the
	// X-tree's recommended value is 0.2. Leaf nodes always split.
	MaxOverlapRatio float64
}

// CapacityForPage derives the node capacity from a page size in bytes
// and the space dimensionality, using the on-page layout of package
// pagestore (16-byte header, per entry: 2*dim float64 corners + 8-byte
// reference + 4-byte count).
func CapacityForPage(pageBytes, dim int) int {
	return CapacityForPageEx(pageBytes, dim, false)
}

// CapacityForPageEx is CapacityForPage with the SR-tree layout option:
// sphere entries additionally store a dim-float64 center and a float64
// radius, reducing the fanout — the SR-tree's inherent trade.
func CapacityForPageEx(pageBytes, dim int, spheres bool) int {
	const header = 16
	entry := dim*2*8 + 8 + 4
	if spheres {
		entry += dim*8 + 8
	}
	c := (pageBytes - header) / entry
	if c < 4 {
		c = 4
	}
	return c
}

func (c *Config) fill() error {
	if c.Dim <= 0 {
		return fmt.Errorf("rtree: dimension must be positive, got %d", c.Dim)
	}
	if c.MaxEntries < 4 {
		return fmt.Errorf("rtree: MaxEntries must be >= 4, got %d", c.MaxEntries)
	}
	if c.MinEntries == 0 {
		c.MinEntries = (c.MaxEntries * 2) / 5 // 40%
	}
	if c.MinEntries < 1 || c.MinEntries > c.MaxEntries/2 {
		return fmt.Errorf("rtree: MinEntries %d out of range [1, %d]", c.MinEntries, c.MaxEntries/2)
	}
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = 0.3
	}
	if c.ReinsertFraction < 0 || c.ReinsertFraction > 0.5 {
		return fmt.Errorf("rtree: ReinsertFraction %g out of range (0, 0.5]", c.ReinsertFraction)
	}
	return nil
}

// Tree is an R*-tree over a Store.
type Tree struct {
	cfg      Config
	store    Store
	listener Listener
	root     PageID
	height   int     // number of levels; 1 = root is a leaf
	size     int     // number of data objects
	bound    float64 // coordBound(cfg): the largest |coordinate| Insert accepts

	// reinserted flags forced reinsertion per level within one top-level
	// insert operation (OverflowTreatment is invoked at most once per
	// level per insert).
	reinserted []bool

	// pending holds entries evicted by forced reinsertion, from
	// pendingHead on. They are drained at the top level of Insert/Delete
	// rather than re-entering the tree mid-recursion: a reentrant insert
	// could split an ancestor while a stack frame still holds an index
	// into it.
	pending     []pendingReinsert
	pendingHead int

	// w is the working memory of the structural operations; a tree has
	// a single writer.
	w writeScratch
}

type pendingReinsert struct {
	e     Entry
	level int
}

// writeScratch is what an insert or delete computes with and throws
// away: nothing in it outlives the operation, and nothing a node or a
// FlatNode view can reach ever points into it. Sized by the node
// capacity (a few KB; an X-tree supernode grows it to its own size).
type writeScratch struct {
	// lo and hi are the axis-major columns of the node under
	// ChooseSubtree or split: entry j spans lo[a][j]..hi[a][j] on axis a
	// — the layout the scans read, not the 104-byte Entry.
	lo, hi [][]float64
	slab   []float64

	// ChooseSubtree: every entry's area and area enlargement, and the
	// candidate's own and enlarged corners.
	area, enlarge []float64
	corners       []float64

	// mbr is the rectangle a node's cover is computed into before it is
	// compared with the parent entry's.
	mbr geom.Rect

	// Split and reinsert: sort keys, the sorted orders of every axis,
	// the MBR of every suffix of one order and the MBR a sweep extends.
	keys   []sortKey
	perm   []int32
	suffix []float64
	run    []float64

	// SR mode: sphereOf's inputs.
	centers []geom.Point
	weights []int
	spheres []geom.Sphere

	// path is Delete's root-to-leaf path.
	path []PageID
}

// load lays entries out in the lo/hi columns.
func (w *writeScratch) load(entries []Entry, dim int) {
	m := len(entries)
	if w.lo == nil {
		w.lo, w.hi = make([][]float64, dim), make([][]float64, dim)
	}
	slab := floats(&w.slab, 2*dim*m)
	for a := 0; a < dim; a++ {
		w.lo[a] = slab[2*a*m : (2*a+1)*m : (2*a+1)*m]
		w.hi[a] = slab[(2*a+1)*m : (2*a+2)*m : (2*a+2)*m]
	}
	for j := range entries {
		r := &entries[j].Rect
		for a := 0; a < dim; a++ {
			w.lo[a][j], w.hi[a][j] = r.Lo[a], r.Hi[a]
		}
	}
}

// floats returns *buf resized to n, reallocating only to grow.
func floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// New creates an empty R*-tree over the given store.
func New(cfg Config, store Store) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if store == nil {
		store = NewMemStore()
	}
	// All structural operations run through a tracing wrapper so that
	// TraceOp can report the exact page I/O of an insert or delete.
	store = &tracingStore{inner: store}
	t := &Tree{cfg: cfg, store: store, listener: nopListener{}, bound: coordBound(cfg)}
	root := store.Allocate(0)
	t.root = root.ID
	t.height = 1
	t.listener.NodeCreated(root, nil)
	t.listener.RootChanged(root.ID)
	return t, nil
}

// Restore reconstructs a tree around an existing store (e.g. pages
// decoded from a snapshot). The store must already contain a consistent
// tree rooted at root; size is the number of data objects. The caller
// should run CheckInvariants afterwards — Restore validates only the
// root's existence and level.
func Restore(cfg Config, store Store, root PageID, size int) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("rtree: Restore requires a store")
	}
	rootNode := store.Get(root) // panics on unknown page, as documented
	t := &Tree{
		cfg:      cfg,
		store:    &tracingStore{inner: store},
		listener: nopListener{},
		root:     root,
		height:   rootNode.Level + 1,
		size:     size,
		bound:    coordBound(cfg),
	}
	return t, nil
}

// coordBound is the largest |coordinate| a tree with this geometry
// accepts. Within it an extent is at most E = 2·bound, with
//
//	E^max(dim, 2) · S ≤ MaxFloat64,  S = 4 · dim · n,
//
// where n bounds the entries of a node an insertion works on: M+1 when
// it overflows; an X-tree supernode has no fixed size, so there n is
// 2^40 entries, more than any store holds. What an insertion adds up
// then stays finite: an area is at most E^dim and an overlap sum has
// fewer than n terms (ChooseSubtree), a margin sum has at most 4·n
// margins of at most dim·E each (the split), a squared distance is at
// most dim·E² (forced reinsertion, the SR descent). Rounding cannot
// close the slack of the factor 4·dim.
func coordBound(cfg Config) float64 {
	n := float64(cfg.MaxEntries + 1)
	if cfg.MaxOverlapRatio > 0 {
		n = 1 << 40
	}
	s := 4 * float64(cfg.Dim) * n
	return math.Pow(math.MaxFloat64/s, 1/float64(max(cfg.Dim, 2))) / 2
}

// CoordBound returns the largest |coordinate| Insert accepts.
func (t *Tree) CoordBound() float64 { return t.bound }

// checkRect refuses a rectangle no insertion can handle: the wrong
// dimensionality, Lo above Hi, or a coordinate that is NaN or outside
// ±bound (infinities included).
func (t *Tree) checkRect(r geom.Rect) error {
	if r.Dim() != t.cfg.Dim || len(r.Hi) != t.cfg.Dim {
		return fmt.Errorf("dim %d in a %d-d tree", r.Dim(), t.cfg.Dim)
	}
	b := t.bound
	for a := range r.Lo {
		if lo, hi := r.Lo[a], r.Hi[a]; !(-b <= lo && lo <= hi && hi <= b) {
			return fmt.Errorf("axis %d spans %g..%g, want -%g <= lo <= hi <= %g", a, lo, hi, b, b)
		}
	}
	return nil
}

// SetListener installs a structural-change listener. It must be called
// before any inserts; pages already created are reported only to the
// previous listener. Passing nil removes the listener.
func (t *Tree) SetListener(l Listener) {
	if l == nil {
		t.listener = nopListener{}
		return
	}
	t.listener = l
	// Report the pre-existing root so the listener's page table is complete.
	l.NodeCreated(t.store.Get(t.root), nil)
	l.RootChanged(t.root)
}

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Root returns the root page ID.
func (t *Tree) Root() PageID { return t.root }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of data objects indexed.
func (t *Tree) Len() int { return t.size }

// Store exposes the underlying node store (query executors read pages
// through it). It returns the store the tree was built over; only the
// tree's own structural operations flow through the tracing wrapper.
func (t *Tree) Store() Store { return t.store.(*tracingStore).inner }

// TraceOp runs fn (typically one Insert or Delete) and returns the
// distinct pages it read and wrote. Page IDs appear in ascending order.
// TraceOp is not reentrant.
func (t *Tree) TraceOp(fn func()) OpTrace {
	ts := t.store.(*tracingStore)
	ts.armed = true
	ts.reads = make(map[PageID]bool)
	ts.writes = make(map[PageID]bool)
	defer func() {
		ts.armed = false
		ts.reads = nil
		ts.writes = nil
	}()
	fn()
	var tr OpTrace
	for id := range ts.reads {
		tr.Reads = append(tr.Reads, id)
	}
	for id := range ts.writes {
		tr.Writes = append(tr.Writes, id)
	}
	sort.Slice(tr.Reads, func(i, j int) bool { return tr.Reads[i] < tr.Reads[j] })
	sort.Slice(tr.Writes, func(i, j int) bool { return tr.Writes[i] < tr.Writes[j] })
	return tr
}

// Bounds returns the MBR of the whole data set, or false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	root := t.store.Get(t.root)
	if len(root.Entries) == 0 {
		return geom.Rect{}, false
	}
	return root.MBR(), true
}

// Insert adds an object with the given MBR. A rectangle is refused,
// before the tree is touched, when Lo is above Hi on some axis or a
// coordinate is NaN or outside ±CoordBound(): every comparison
// ChooseSubtree and the split make assumes ordered corners and finite
// areas, margins and overlap sums, and within the bound none of them
// can overflow (see coordBound).
func (t *Tree) Insert(r geom.Rect, obj ObjectID) error {
	if err := t.checkRect(r); err != nil {
		return fmt.Errorf("rtree: insert of object %d: %w", obj, err)
	}
	e := LeafEntry(copyRect(r), obj)
	if t.cfg.UseSpheres {
		c := e.Rect.Center()
		e.Sphere = geom.Sphere{Center: c, Radius: c.Dist(e.Rect.Hi)}
	}
	t.insertTopLevel(e, 0)
	t.size++
	return nil
}

// insertTopLevel is one whole insert operation: the entry goes in at
// its level, then everything forced reinsertion evicted on the way.
func (t *Tree) insertTopLevel(e Entry, level int) {
	clear(t.reinserted)
	t.insertEntry(e, level)
	t.drainPending()
}

// copyRect returns a rectangle of its own with r's corners, both in one
// allocation. Every rectangle the tree stores is made here and never
// written again: a live node's Flat view, and every geom.Rect a query
// got from one, aliases the corners it was built over.
func copyRect(r geom.Rect) geom.Rect {
	dim := len(r.Lo)
	c := make([]float64, 2*dim)
	copy(c, r.Lo)
	copy(c[dim:], r.Hi)
	return geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
}

// sphereOf computes a node's SR-sphere: the weighted centroid of its
// entries' sphere centers (weights are the subtree object counts, so
// the center tracks the centroid of the underlying points) with the
// smallest maintained radius covering every entry sphere.
func (t *Tree) sphereOf(n *Node) geom.Sphere {
	w := &t.w
	w.centers, w.weights, w.spheres = w.centers[:0], w.weights[:0], w.spheres[:0]
	for i := range n.Entries {
		w.centers = append(w.centers, n.Entries[i].Sphere.Center)
		w.weights = append(w.weights, n.Entries[i].Count)
		w.spheres = append(w.spheres, n.Entries[i].Sphere)
	}
	c := geom.WeightedCentroid(w.centers, w.weights)
	return geom.Sphere{Center: c, Radius: geom.CoveringRadius(c, w.spheres)}
}

// entryFor builds the parent entry describing child: exact MBR cover,
// subtree object count, and (in SR mode) the maintained sphere.
func (t *Tree) entryFor(child *Node) Entry {
	var e Entry
	t.refreshEntry(&e, child)
	return e
}

// refreshEntry makes *e the parent entry of child. The rectangle e
// already has is kept when it still is child's exact cover, bit for
// bit; otherwise e gets a new one. It is never corrected in place (see
// copyRect).
func (t *Tree) refreshEntry(e *Entry, child *Node) {
	mbr := t.scratchMBR(child)
	if !sameBits(e.Rect.Lo, mbr.Lo) || !sameBits(e.Rect.Hi, mbr.Hi) {
		e.Rect = copyRect(mbr)
	}
	e.Child, e.Object, e.Count = child.ID, 0, child.ObjectCount()
	if t.cfg.UseSpheres {
		e.Sphere = t.sphereOf(child)
	}
}

// scratchMBR returns n's MBR in scratch: valid until the next call.
func (t *Tree) scratchMBR(n *Node) geom.Rect {
	if t.w.mbr.Lo == nil {
		t.w.mbr = geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
	}
	n.MBRInto(t.w.mbr)
	return t.w.mbr
}

// sameBits reports whether p and q hold the same float64 values bit for
// bit (−0 and +0 differ: the page image would).
func sameBits(p, q geom.Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

// drainPending re-inserts entries evicted by forced reinsertion. Each
// insertion may evict further entries (at other levels, thanks to the
// once-per-level flag), which simply join the queue.
func (t *Tree) drainPending() {
	for t.pendingHead < len(t.pending) {
		pr := t.pending[t.pendingHead]
		t.pendingHead++
		t.insertEntry(pr.e, pr.level)
	}
	clear(t.pending) // drop the entries' rectangles
	t.pending, t.pendingHead = t.pending[:0], 0
}

// InsertPoint adds a point object.
func (t *Tree) InsertPoint(p geom.Point, obj ObjectID) error {
	return t.Insert(geom.PointRect(p), obj)
}

// insertEntry places e at the given level, handling overflow all the way
// to the root.
func (t *Tree) insertEntry(e Entry, level int) {
	splitEntry := t.insertAt(t.store.Get(t.root), e, level)
	if splitEntry != nil {
		// Root split: grow the tree by one level. The split-off node's
		// only sibling is the old root.
		oldRoot := t.store.Get(t.root)
		t.listener.NodeCreated(t.store.Get(splitEntry.Child), []PageID{oldRoot.ID})
		newRoot := t.store.Allocate(oldRoot.Level + 1)
		newRoot.Entries = append(newRoot.Entries, t.entryFor(oldRoot), *splitEntry)
		t.store.Update(newRoot)
		t.root = newRoot.ID
		t.height++
		t.listener.NodeCreated(newRoot, nil)
		t.listener.RootChanged(newRoot.ID)
	}
}

// insertAt recursively inserts e into the subtree rooted at n, targeting
// the given level. It returns a non-nil entry when n was split; the
// entry describes the new sibling node. Callers must refresh their entry
// for n regardless — counts always change.
func (t *Tree) insertAt(n *Node, e Entry, level int) *Entry {
	if n.Level == level {
		n.Entries = append(n.Entries, e)
		if len(n.Entries) > t.cfg.MaxEntries {
			return t.overflowTreatment(n)
		}
		t.store.Update(n)
		return nil
	}

	// Descend: R* ChooseSubtree (or nearest-centroid in SR mode).
	idx := t.chooseSubtree(n, e)
	child := t.store.Get(n.Entries[idx].Child)
	splitEntry := t.insertAt(child, e, level)

	// Refresh the entry for the (possibly shrunk/grown/split) child.
	t.refreshEntry(&n.Entries[idx], child)

	if splitEntry != nil {
		// Report the child's new sibling with the full sibling set under
		// this parent, as the declustering heuristics require (paper
		// §2.2: the new node is placed relative to its father's other
		// children).
		sibs := make([]PageID, 0, len(n.Entries))
		for _, pe := range n.Entries {
			sibs = append(sibs, pe.Child)
		}
		t.listener.NodeCreated(t.store.Get(splitEntry.Child), sibs)
		n.Entries = append(n.Entries, *splitEntry)
		if len(n.Entries) > t.cfg.MaxEntries {
			return t.overflowTreatment(n)
		}
	}
	t.store.Update(n)
	return nil
}

// chooseSubtree implements the R* descent rule: into nodes whose
// children are leaves, pick the entry needing the least overlap
// enlargement; higher up, the least area enlargement. Ties break by
// smaller area enlargement, then smaller area, then lower index. In SR
// mode the descent instead follows the entry whose sphere center is
// nearest to the new entry's center (the SS/SR-tree rule), ties by
// smaller radius.
//
// The overlap enlargement of one entry is a sum over all its siblings,
// and the rule asks for the minimum over all entries: M² overlap tests.
// Almost none of them can change the answer. The scan below computes a
// sum only while the entry can still win, and what it skips is skipped
// exactly — it returns the index the all-pairs loop would (DESIGN.md,
// decision 16, has the three lemmas; oracle_test.go has the loop):
//
//   - every term of the sum is >= 0, so the running sum never decreases
//     and an entry is out as soon as its sum passes the incumbent's;
//   - a sibling the enlarged rectangle does not meet contributes exactly
//     +0, and an entry that covers the new rectangle sums to exactly 0;
//   - the first incumbent is the entry with the least (enlargement,
//     area, index): against an incumbent whose overlap is 0 nothing
//     else can win on a tie, so nothing else is summed at all.
func (t *Tree) chooseSubtree(n *Node, newEntry Entry) int {
	if t.cfg.UseSpheres {
		return chooseByCentroid(n, newEntry.Sphere.Center)
	}
	r := newEntry.Rect
	dim, m := t.cfg.Dim, len(n.Entries)
	w := &t.w
	w.load(n.Entries, dim)

	// Area and area enlargement of every entry, each a product over the
	// axes in axis order.
	area, enlarge := floats(&w.area, m), floats(&w.enlarge, m)
	for j := range area {
		area[j], enlarge[j] = 1, 1
	}
	for a := 0; a < dim; a++ {
		lo, hi := w.lo[a], w.hi[a]
		rlo, rhi := r.Lo[a], r.Hi[a]
		for j := range area {
			area[j] *= hi[j] - lo[j]
			enlarge[j] *= max(hi[j], rhi) - min(lo[j], rlo)
		}
	}
	best := 0
	for j := range area {
		enlarge[j] -= area[j]
		if lessPair(enlarge[j], area[j], enlarge[best], area[best]) {
			best = j
		}
	}
	if n.Level != 1 {
		return best // no overlap term above the leaves' parents
	}

	// The children are leaves. Seed the incumbent with the entry found
	// above, then give every other entry the chance its (enlargement,
	// area) leaves it: with a smaller pair it wins an overlap tie, with
	// a larger one (or the same pair and a higher index) it needs a
	// strictly smaller overlap.
	seed := best
	bestOverlap, _ := w.overlapEnlargement(seed, r, math.Inf(1), false)
	for i := 0; i < m; i++ {
		if i == seed {
			continue
		}
		winsTie := lessPair(enlarge[i], area[i], enlarge[best], area[best])
		if overlap, ok := w.overlapEnlargement(i, r, bestOverlap, !winsTie); ok {
			best, bestOverlap = i, overlap
		}
	}
	return best
}

// lessPair compares (enlargement, area) pairs lexicographically.
func lessPair(e, a, be, ba float64) bool {
	if e < be {
		return true
	}
	return !(e > be) && a < ba
}

// overlapEnlargement returns how much the overlap of entry i of the
// loaded node with its siblings grows when the entry is enlarged to
// cover r: the sum over the siblings j, in entry order, of
// overlap(entry i ∪ r, entry j) − overlap(entry i, entry j). It gives
// up, returning false, once the running sum exceeds limit — or reaches
// it, when the entry needs a strictly smaller sum to win.
func (w *writeScratch) overlapEnlargement(i int, r geom.Rect, limit float64, strictly bool) (float64, bool) {
	if strictly && limit <= 0 {
		return 0, false // no sum ends below where it starts
	}
	dim := len(w.lo)
	c := floats(&w.corners, 4*dim)
	ownLo, ownHi, bigLo, bigHi := c[:dim], c[dim:2*dim], c[2*dim:3*dim], c[3*dim:]
	covers := true
	for a := 0; a < dim; a++ {
		ownLo[a], ownHi[a] = w.lo[a][i], w.hi[a][i]
		bigLo[a], bigHi[a] = min(ownLo[a], r.Lo[a]), max(ownHi[a], r.Hi[a])
		covers = covers && ownLo[a] <= r.Lo[a] && r.Hi[a] <= ownHi[a]
	}
	if covers {
		return 0, true // the enlarged entry is the entry: every term is x − x
	}
	var sum float64
	for j := range w.lo[0] {
		if j == i {
			continue
		}
		grown := w.overlapWith(j, bigLo, bigHi)
		if grown == 0 {
			continue // the entry's own overlap with j is inside this one: 0 − 0
		}
		sum += grown - w.overlapWith(j, ownLo, ownHi)
		if sum > limit || (strictly && sum >= limit) {
			return sum, false
		}
	}
	return sum, true
}

// overlapWith is geom.Rect.OverlapArea of lo..hi and entry j of the
// loaded node, term for term.
func (w *writeScratch) overlapWith(j int, lo, hi []float64) float64 {
	v := 1.0
	for a := range lo {
		l, h := max(lo[a], w.lo[a][j]), min(hi[a], w.hi[a][j])
		if h <= l {
			return 0
		}
		v *= h - l
	}
	return v
}

// chooseByCentroid picks the entry whose sphere center is nearest to c,
// breaking ties toward the smaller radius (then the lower index).
func chooseByCentroid(n *Node, c geom.Point) int {
	best := 0
	bestDist := math.Inf(1)
	bestRadius := math.Inf(1)
	for i, e := range n.Entries {
		d := c.DistSq(e.Sphere.Center)
		//lint:allow floatcmp exact distance tie deliberately broken by the smaller radius
		if d < bestDist || (d == bestDist && e.Sphere.Radius < bestRadius) {
			best, bestDist, bestRadius = i, d, e.Sphere.Radius
		}
	}
	return best
}

// overflowTreatment handles a node with M+1 entries: forced reinsertion
// on the first overflow of a level during one insert (unless n is the
// root), a split otherwise. It returns the new sibling entry when n was
// split, nil when entries were reinserted or (X-tree mode) the node was
// kept as a supernode.
func (t *Tree) overflowTreatment(n *Node) *Entry {
	if n.ID != t.root && !t.reinsertedAt(n.Level) {
		t.reinserted[n.Level] = true
		t.reinsert(n)
		return nil
	}
	if t.cfg.MaxOverlapRatio > 0 && !n.IsLeaf() {
		// X-tree rule: a high-overlap directory split would force
		// queries to descend both halves anyway — keep a supernode.
		g1, g2 := t.chooseSplit(n.Entries)
		if splitOverlapRatio(g1, g2) > t.cfg.MaxOverlapRatio {
			t.store.Update(n)
			return nil
		}
		return t.splitInto(n, g1, g2)
	}
	return t.split(n)
}

// reinsertedAt reports whether level already had its forced reinsertion
// in this insert operation, making room for the level's flag.
func (t *Tree) reinsertedAt(level int) bool {
	for len(t.reinserted) <= level {
		t.reinserted = append(t.reinserted, false)
	}
	return t.reinserted[level]
}

// splitOverlapRatio measures the Jaccard overlap of the two groups'
// MBRs: overlap volume / union-of-volumes.
func splitOverlapRatio(g1, g2 []Entry) float64 {
	r1, r2 := coverMBR(g1), coverMBR(g2)
	ov := r1.OverlapArea(r2)
	if ov == 0 {
		return 0
	}
	denom := r1.Area() + r2.Area() - ov
	if denom <= 0 {
		return 1
	}
	return ov / denom
}

// coverMBR returns the MBR of a non-empty entry slice.
func coverMBR(es []Entry) geom.Rect {
	r := es[0].Rect.Clone()
	for _, e := range es[1:] {
		r.UnionInPlace(e.Rect)
	}
	return r
}

// sortKey orders entry idx of the loaded node by k1, then k2, then its
// position — what a stable sort by (k1, k2) computes, as a total order
// a plain typed sort can use.
type sortKey struct {
	k1, k2 float64
	idx    int32
}

func (a sortKey) compare(b sortKey) int {
	switch {
	case a.k1 < b.k1:
		return -1
	case a.k1 > b.k1:
		return 1
	case a.k2 < b.k2:
		return -1
	case a.k2 > b.k2:
		return 1
	}
	return int(a.idx - b.idx)
}

// sortedKeys returns m keys for fill to set (idx is preset), sorted.
func (w *writeScratch) sortedKeys(m int, fill func(k *sortKey)) []sortKey {
	if cap(w.keys) < m {
		w.keys = make([]sortKey, m)
	}
	keys := w.keys[:m]
	for j := range keys {
		keys[j].idx = int32(j)
		fill(&keys[j])
	}
	slices.SortFunc(keys, sortKey.compare)
	return keys
}

// reinsert implements R* forced reinsertion: remove the p entries whose
// centers lie farthest from the node's MBR center and queue them for
// re-insertion from the top ("close reinsert": nearest first). The
// actual inserts run from drainPending once the current recursion has
// fully unwound and every ancestor MBR/count is consistent.
func (t *Tree) reinsert(n *Node) {
	p := int(t.cfg.ReinsertFraction * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	mbr := t.scratchMBR(n)
	// Farthest first, ties in entry order.
	keys := t.w.sortedKeys(len(n.Entries), func(k *sortKey) {
		r := n.Entries[k.idx].Rect
		var d float64
		for a := range mbr.Lo {
			x := (mbr.Lo[a]+mbr.Hi[a])/2 - (r.Lo[a]+r.Hi[a])/2
			d += x * x
		}
		k.k1, k.k2 = -d, 0
	})
	kept := make([]Entry, 0, len(keys)-p)
	for _, k := range keys[p:] {
		kept = append(kept, n.Entries[k.idx])
	}
	// Close reinsert: queue the removed entries nearest-center first.
	for i := p - 1; i >= 0; i-- {
		t.pending = append(t.pending, pendingReinsert{n.Entries[keys[i].idx], n.Level})
	}
	n.Entries = kept
	t.store.Update(n)
}

// split performs the R* topological split of an overflowing node and
// returns the parent entry for the newly created sibling.
func (t *Tree) split(n *Node) *Entry {
	group1, group2 := t.chooseSplit(n.Entries)
	return t.splitInto(n, group1, group2)
}

// splitInto applies a precomputed split distribution.
func (t *Tree) splitInto(n *Node, group1, group2 []Entry) *Entry {
	nn := t.store.Allocate(n.Level)
	n.Entries = group1
	nn.Entries = group2
	t.store.Update(n)
	t.store.Update(nn)

	// NodeCreated for nn is reported by the caller once the new entry is
	// installed in the parent, so the listener sees the full sibling set.
	e := t.entryFor(nn)
	return &e
}

// chooseSplit implements the R* split algorithm: pick the split axis by
// minimum margin sum over all distributions, then the distribution on
// that axis with minimum overlap (ties: minimum total area).
//
// A distribution cuts one sorted order of the entries into a prefix and
// a suffix, and both of its MBRs come out of one backward and one
// forward sweep over that order (min and max are exact, so a swept MBR
// is the MBR). The margin, overlap and area sums add up in the order
// they always did.
func (t *Tree) chooseSplit(entries []Entry) (g1, g2 []Entry) {
	m := t.cfg.MinEntries
	total := len(entries) // M+1, or a supernode's size
	dim := t.cfg.Dim
	w := &t.w
	w.load(entries, dim)

	// For each axis, the entries sorted by lower then by upper
	// coordinate, and by upper then by lower.
	if cap(w.perm) < 2*dim*total {
		w.perm = make([]int32, 2*dim*total)
	}
	orders := func(axis int) [2][]int32 {
		p := w.perm[2*axis*total : (2*axis+2)*total]
		return [2][]int32{p[:total], p[total:]}
	}
	bestAxis := -1
	bestMargin := math.Inf(1)
	for axis := 0; axis < dim; axis++ {
		lo, hi := w.lo[axis], w.hi[axis]
		ord := orders(axis)
		byLo, byHi := ord[0], ord[1]
		for j, k := range w.sortedKeys(total, func(k *sortKey) { k.k1, k.k2 = lo[k.idx], hi[k.idx] }) {
			byLo[j] = k.idx
		}
		for j, k := range w.sortedKeys(total, func(k *sortKey) { k.k1, k.k2 = hi[k.idx], lo[k.idx] }) {
			byHi[j] = k.idx
		}

		var marginSum float64
		for _, order := range ord {
			w.distributions(order, m, func(_ int, lo1, hi1, lo2, hi2 []float64) {
				marginSum += geom.Rect{Lo: lo1, Hi: hi1}.Margin() + geom.Rect{Lo: lo2, Hi: hi2}.Margin()
			})
		}
		if marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}

	// On the chosen axis pick the distribution minimizing overlap, then
	// total area.
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var bestOrder []int32
	bestSplit := -1
	for _, order := range orders(bestAxis) {
		w.distributions(order, m, func(split int, lo1, hi1, lo2, hi2 []float64) {
			r1, r2 := geom.Rect{Lo: lo1, Hi: hi1}, geom.Rect{Lo: lo2, Hi: hi2}
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			//lint:allow floatcmp exact overlap tie deliberately broken by the smaller total area
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestOrder, bestSplit = order, split
			}
		})
	}

	// The groups are the nodes' entry storage from here on: sized like
	// a copy of each, no larger.
	g1 = slices.Grow([]Entry(nil), bestSplit)
	for _, j := range bestOrder[:bestSplit] {
		g1 = append(g1, entries[j])
	}
	g2 = slices.Grow([]Entry(nil), total-bestSplit)
	for _, j := range bestOrder[bestSplit:] {
		g2 = append(g2, entries[j])
	}
	return g1, g2
}

// distributions calls fn for every R* distribution of the loaded node's
// entries taken in the given order — the first split entries against
// the rest, for split from m to len(order)−m — with the corners of both
// groups' MBRs. The corners are scratch: valid during the call only.
func (w *writeScratch) distributions(order []int32, m int, fn func(split int, lo1, hi1, lo2, hi2 []float64)) {
	dim, total := len(w.lo), len(order)
	first, last := m, total-m
	extend := func(lo, hi []float64, j int32) {
		for a := 0; a < dim; a++ {
			lo[a], hi[a] = min(lo[a], w.lo[a][j]), max(hi[a], w.hi[a][j])
		}
	}
	start := func(lo, hi []float64, j int32) {
		for a := 0; a < dim; a++ {
			lo[a], hi[a] = w.lo[a][j], w.hi[a][j]
		}
	}

	// Backward: the MBR of order[s:] for every split position s.
	suffix := floats(&w.suffix, 2*dim*(last-first+1))
	at := func(s int) (lo, hi []float64) {
		c := suffix[2*dim*(s-first) : 2*dim*(s-first+1)]
		return c[:dim], c[dim:]
	}
	run := floats(&w.run, 2*dim)
	lo, hi := run[:dim], run[dim:]
	start(lo, hi, order[total-1])
	for s := total - 1; s >= first; s-- {
		extend(lo, hi, order[s])
		if s <= last {
			slo, shi := at(s)
			copy(slo, lo)
			copy(shi, hi)
		}
	}
	// Forward: the MBR of order[:s] beside it.
	start(lo, hi, order[0])
	for s := 1; s <= last; s++ {
		if s >= first {
			slo, shi := at(s)
			fn(s, lo, hi, slo, shi)
		}
		extend(lo, hi, order[s])
	}
}
