package rtree

import (
	"errors"
	"fmt"
	"math"
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
	height   int // number of levels; 1 = root is a leaf
	size     int // number of data objects

	// reinsertedAtLevel flags forced reinsertion per level within one
	// top-level insert operation (OverflowTreatment is invoked at most
	// once per level per insert).
	reinsertedAtLevel map[int]bool

	// pending holds entries evicted by forced reinsertion. They are
	// drained at the top level of Insert/Delete rather than re-entering
	// the tree mid-recursion: a reentrant insert could split an ancestor
	// while a stack frame still holds an index into it.
	pending []pendingReinsert

	// enlarged is chooseSubtree's working rectangle (an entry's MBR
	// grown by the new entry); a tree has a single writer.
	enlarged geom.Rect
}

type pendingReinsert struct {
	e     Entry
	level int
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
	t := &Tree{cfg: cfg, store: store, listener: nopListener{}}
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
	}
	return t, nil
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

// Insert adds an object with the given MBR.
func (t *Tree) Insert(r geom.Rect, obj ObjectID) error {
	if r.Dim() != t.cfg.Dim {
		return fmt.Errorf("rtree: insert dim %d into %d-d tree", r.Dim(), t.cfg.Dim)
	}
	e := LeafEntry(r.Clone(), obj)
	if t.cfg.UseSpheres {
		c := e.Rect.Center()
		e.Sphere = geom.Sphere{Center: c, Radius: c.Dist(e.Rect.Hi)}
	}
	t.reinsertedAtLevel = make(map[int]bool)
	t.insertEntry(e, 0)
	t.drainPending()
	t.size++
	return nil
}

// sphereOf computes a node's SR-sphere: the weighted centroid of its
// entries' sphere centers (weights are the subtree object counts, so
// the center tracks the centroid of the underlying points) with the
// smallest maintained radius covering every entry sphere.
func sphereOf(n *Node) geom.Sphere {
	centers := make([]geom.Point, len(n.Entries))
	weights := make([]int, len(n.Entries))
	spheres := make([]geom.Sphere, len(n.Entries))
	for i := range n.Entries {
		centers[i] = n.Entries[i].Sphere.Center
		weights[i] = n.Entries[i].Count
		spheres[i] = n.Entries[i].Sphere
	}
	c := geom.WeightedCentroid(centers, weights)
	return geom.Sphere{Center: c, Radius: geom.CoveringRadius(c, spheres)}
}

// entryFor builds the parent entry describing child: exact MBR cover,
// subtree object count, and (in SR mode) the maintained sphere.
func (t *Tree) entryFor(child *Node) Entry {
	e := Entry{Rect: child.MBR(), Child: child.ID, Count: child.ObjectCount()}
	if t.cfg.UseSpheres {
		e.Sphere = sphereOf(child)
	}
	return e
}

// drainPending re-inserts entries evicted by forced reinsertion. Each
// insertion may evict further entries (at other levels, thanks to the
// once-per-level flag), which simply join the queue.
func (t *Tree) drainPending() {
	for len(t.pending) > 0 {
		pr := t.pending[0]
		t.pending = t.pending[1:]
		t.insertEntry(pr.e, pr.level)
	}
}

// InsertPoint adds a point object.
func (t *Tree) InsertPoint(p geom.Point, obj ObjectID) error {
	return t.Insert(geom.PointRect(p), obj)
}

// insertEntry places e at the given level, handling overflow all the way
// to the root.
func (t *Tree) insertEntry(e Entry, level int) {
	splitEntry, grown := t.insertAt(t.store.Get(t.root), e, level)
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
	_ = grown
}

// insertAt recursively inserts e into the subtree rooted at n, targeting
// the given level. It returns a non-nil entry when n was split; the
// entry describes the new sibling node. The bool reports whether n's MBR
// may have grown (callers must refresh their entry for n regardless —
// counts always change).
func (t *Tree) insertAt(n *Node, e Entry, level int) (*Entry, bool) {
	if n.Level == level {
		n.Entries = append(n.Entries, e)
		if len(n.Entries) > t.cfg.MaxEntries {
			return t.overflowTreatment(n), true
		}
		t.store.Update(n)
		return nil, true
	}

	// Descend: R* ChooseSubtree (or nearest-centroid in SR mode).
	idx := t.chooseSubtree(n, e)
	child := t.store.Get(n.Entries[idx].Child)
	splitEntry, _ := t.insertAt(child, e, level)

	// Refresh the entry for the (possibly shrunk/grown/split) child.
	n.Entries[idx] = t.entryFor(child)

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
			return t.overflowTreatment(n), true
		}
	}
	t.store.Update(n)
	return nil, true
}

// chooseSubtree implements the R* descent rule: into nodes whose
// children are leaves, pick the entry needing the least overlap
// enlargement; higher up, the least area enlargement. Ties break by
// smaller area enlargement, then smaller area. In SR mode the descent
// instead follows the entry whose sphere center is nearest to the new
// entry's center (the SS/SR-tree rule), ties by smaller radius.
func (t *Tree) chooseSubtree(n *Node, newEntry Entry) int {
	if t.cfg.UseSpheres {
		return chooseByCentroid(n, newEntry.Sphere.Center)
	}
	r := newEntry.Rect
	best := -1
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	childrenAreLeaves := n.Level == 1

	if t.enlarged.Lo == nil {
		t.enlarged = geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
	}
	enlarged := t.enlarged
	for i, e := range n.Entries {
		e.Rect.UnionInto(r, enlarged)
		enlarge := enlarged.Area() - e.Rect.Area()
		area := e.Rect.Area()
		var overlap float64
		if childrenAreLeaves {
			// Overlap enlargement of entry i against all siblings.
			for j, s := range n.Entries {
				if j == i {
					continue
				}
				overlap += enlarged.OverlapArea(s.Rect) - e.Rect.OverlapArea(s.Rect)
			}
		}
		if better(overlap, enlarge, area, bestOverlap, bestEnlarge, bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
		}
	}
	return best
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

// better compares (overlap, enlargement, area) triples lexicographically.
func better(o, e, a, bo, be, ba float64) bool {
	//lint:allow floatcmp lexicographic triple comparison needs exact equality to fall through
	if o != bo {
		return o < bo
	}
	//lint:allow floatcmp lexicographic triple comparison needs exact equality to fall through
	if e != be {
		return e < be
	}
	return a < ba
}

// overflowTreatment handles a node with M+1 entries: forced reinsertion
// on the first overflow of a level during one insert (unless n is the
// root), a split otherwise. It returns the new sibling entry when n was
// split, nil when entries were reinserted or (X-tree mode) the node was
// kept as a supernode.
func (t *Tree) overflowTreatment(n *Node) *Entry {
	if n.ID != t.root && !t.reinsertedAtLevel[n.Level] {
		t.reinsertedAtLevel[n.Level] = true
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
	center := n.MBR().Center()
	type de struct {
		e Entry
		d float64
	}
	ds := make([]de, len(n.Entries))
	for i, e := range n.Entries {
		ds[i] = de{e, center.DistSq(e.Rect.Center())}
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].d > ds[j].d }) // farthest first
	removed := make([]Entry, p)
	for i := 0; i < p; i++ {
		removed[i] = ds[i].e
	}
	kept := make([]Entry, 0, len(ds)-p)
	for _, x := range ds[p:] {
		kept = append(kept, x.e)
	}
	n.Entries = kept
	t.store.Update(n)
	// Close reinsert: queue the removed entries nearest-center first.
	for i := p - 1; i >= 0; i-- {
		t.pending = append(t.pending, pendingReinsert{removed[i], n.Level})
	}
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
func (t *Tree) chooseSplit(entries []Entry) (g1, g2 []Entry) {
	m := t.cfg.MinEntries
	total := len(entries) // M+1
	dim := t.cfg.Dim

	bestAxis := -1
	bestMargin := math.Inf(1)
	// For each axis, entries sorted by lower then by upper coordinate.
	type sorted struct{ byLo, byHi []Entry }
	axisSorts := make([]sorted, dim)

	for axis := 0; axis < dim; axis++ {
		byLo := append([]Entry(nil), entries...)
		a := axis
		sort.SliceStable(byLo, func(i, j int) bool {
			//lint:allow floatcmp exact-equal coordinates deliberately fall through to the Hi tie-break
			if byLo[i].Rect.Lo[a] != byLo[j].Rect.Lo[a] {
				return byLo[i].Rect.Lo[a] < byLo[j].Rect.Lo[a]
			}
			return byLo[i].Rect.Hi[a] < byLo[j].Rect.Hi[a]
		})
		byHi := append([]Entry(nil), entries...)
		sort.SliceStable(byHi, func(i, j int) bool {
			//lint:allow floatcmp exact-equal coordinates deliberately fall through to the Lo tie-break
			if byHi[i].Rect.Hi[a] != byHi[j].Rect.Hi[a] {
				return byHi[i].Rect.Hi[a] < byHi[j].Rect.Hi[a]
			}
			return byHi[i].Rect.Lo[a] < byHi[j].Rect.Lo[a]
		})
		axisSorts[axis] = sorted{byLo, byHi}

		var marginSum float64
		for _, list := range [][]Entry{byLo, byHi} {
			for k := 1; k <= total-2*m+1; k++ {
				split := m - 1 + k
				marginSum += coverMBR(list[:split]).Margin() + coverMBR(list[split:]).Margin()
			}
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
	var bestList []Entry
	bestSplit := -1
	for _, list := range [][]Entry{axisSorts[bestAxis].byLo, axisSorts[bestAxis].byHi} {
		for k := 1; k <= total-2*m+1; k++ {
			split := m - 1 + k
			r1 := coverMBR(list[:split])
			r2 := coverMBR(list[split:])
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			//lint:allow floatcmp exact overlap tie deliberately broken by the smaller total area
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestList, bestSplit = list, split
			}
		}
	}

	g1 = append([]Entry(nil), bestList[:bestSplit]...)
	g2 = append([]Entry(nil), bestList[bestSplit:]...)
	return g1, g2
}

// coverMBR returns the MBR of a non-empty entry slice.
func coverMBR(es []Entry) geom.Rect {
	r := es[0].Rect.Clone()
	for _, e := range es[1:] {
		r.UnionInPlace(e.Rect)
	}
	return r
}
