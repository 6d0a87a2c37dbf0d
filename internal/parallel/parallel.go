// Package parallel implements the parallel (multiplexed) R*-tree of the
// paper: a single logical R*-tree whose pages are distributed across the
// disks of a RAID-0 array. Structurally it behaves exactly like an
// ordinary R*-tree (package rtree); this layer adds the page-to-disk
// mapping maintained through a declustering policy, and the uniform
// cylinder assignment the paper's simulator uses for page placement
// within a disk.
package parallel

import (
	"fmt"
	"math/rand"

	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// Placement locates a page on the array.
type Placement struct {
	Disk     int
	Cylinder int
}

// Config describes the array and tree geometry.
type Config struct {
	Dim        int
	NumDisks   int
	Cylinders  int // cylinders per disk, for uniform cylinder assignment
	MaxEntries int // node capacity; 0 derives from PageSize
	MinEntries int // 0 = R* default (40% of max)
	PageSize   int // bytes; used when MaxEntries == 0 (default 4096)
	Policy     decluster.Policy
	Seed       int64 // drives cylinder assignment (and Random policy if shared)
	// UseSpheres selects the SR-tree variant: entries carry bounding
	// spheres (reducing fanout accordingly) and queries intersect the
	// rectangle and sphere bounds.
	UseSpheres bool
	// MaxOverlapRatio enables the X-tree supernode variant (see
	// rtree.Config.MaxOverlapRatio); 0 disables it.
	MaxOverlapRatio float64
	// Store, when non-nil, is the node store the tree is built over
	// (e.g. a pagestore.DurableStore for a disk-backed tree). Nil uses
	// an in-memory store.
	Store rtree.Store
}

// fill validates the config and applies defaults in place.
func (cfg *Config) fill() error {
	if cfg.NumDisks <= 0 {
		return fmt.Errorf("parallel: NumDisks must be positive, got %d", cfg.NumDisks)
	}
	if cfg.Cylinders <= 0 {
		return fmt.Errorf("parallel: Cylinders must be positive, got %d", cfg.Cylinders)
	}
	if cfg.Policy == nil {
		cfg.Policy = decluster.ProximityIndex{}
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.MaxEntries == 0 {
		// What fits one page of the on-page layout, but never below the
		// tree's minimum fanout.
		cfg.MaxEntries = max(4, pagestore.Codec{Dim: cfg.Dim, PageSize: cfg.PageSize, Spheres: cfg.UseSpheres}.Capacity())
	}
	return nil
}

// rtreeConfig is the base-tree geometry implied by the array config.
func (cfg Config) rtreeConfig() rtree.Config {
	return rtree.Config{
		Dim:             cfg.Dim,
		MaxEntries:      cfg.MaxEntries,
		MinEntries:      cfg.MinEntries,
		UseSpheres:      cfg.UseSpheres,
		MaxOverlapRatio: cfg.MaxOverlapRatio,
	}
}

// newShell builds the placement bookkeeping around a filled config; the
// caller attaches the base rtree and installs the listener.
func newShell(cfg Config) *Tree {
	return &Tree{
		cfg:        cfg,
		policy:     cfg.Policy,
		state:      decluster.NewArrayState(cfg.NumDisks),
		placements: make(map[rtree.PageID]Placement),
		rects:      make(map[rtree.PageID]geom.Rect),
		rnd:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Tree is an R*-tree declustered over a disk array.
type Tree struct {
	*rtree.Tree
	cfg        Config
	policy     decluster.Policy
	state      *decluster.ArrayState
	placements map[rtree.PageID]Placement
	rects      map[rtree.PageID]geom.Rect // last known MBR per page, for state upkeep
	rnd        *rand.Rand

	// sibs and sibSlab are where NodeCreated hands the policy the
	// siblings' MBRs: the tree has one writer, and no policy keeps them
	// past Assign.
	sibs    []decluster.Sibling
	sibSlab []float64
}

// newCylinderRand returns the generator stream used for uniform
// cylinder assignment (shared by New and snapshot restore).
func newCylinderRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// New builds an empty parallel R*-tree (over Config.Store when set).
func New(cfg Config) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pt := newShell(cfg)
	base, err := rtree.New(cfg.rtreeConfig(), cfg.Store)
	if err != nil {
		return nil, err
	}
	pt.Tree = base
	base.SetListener(pt)
	return pt, nil
}

// Adopt wraps an existing consistent tree — typically one recovered
// from a pagestore.DurableStore — in the parallel layer. The store must
// already hold the tree rooted at root with size data objects (the
// contract of rtree.Restore). Placements are reassigned by replaying
// the declustering policy over a deterministic parent-first walk, so an
// adopted tree's page-to-disk map is reproducible but need not match
// the map the original grow-time listener produced; query results are
// placement-independent, which is what recovery parity tests rely on.
func Adopt(cfg Config, store rtree.Store, root rtree.PageID, size int) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	base, err := rtree.Restore(cfg.rtreeConfig(), store, root, size)
	if err != nil {
		return nil, err
	}
	pt := newShell(cfg)
	pt.Tree = base
	// Replay the policy parent-first, children in entry order; each node
	// is placed seeing its already-placed elder siblings, mirroring what
	// the policy sees when a split reports new siblings.
	var place func(id rtree.PageID, elder []rtree.PageID)
	place = func(id rtree.PageID, elder []rtree.PageID) {
		n := store.Get(id)
		pt.NodeCreated(n, elder)
		if n.IsLeaf() {
			return
		}
		placed := make([]rtree.PageID, 0, len(n.Entries))
		for _, e := range n.Entries {
			place(e.Child, placed)
			placed = append(placed, e.Child)
		}
	}
	place(root, nil)
	base.SetListener(pt) // re-reports the root; NodeCreated skips placed pages
	if err := pt.CheckPlacements(); err != nil {
		return nil, err
	}
	return pt, nil
}

// Config returns the array configuration.
func (t *Tree) Config() Config { return t.cfg }

// NumDisks returns the array width.
func (t *Tree) NumDisks() int { return t.cfg.NumDisks }

// Placement returns the disk/cylinder of a page.
func (t *Tree) Placement(id rtree.PageID) (Placement, bool) {
	p, ok := t.placements[id]
	return p, ok
}

// PagesPerDisk returns a copy of the per-disk live page counts.
func (t *Tree) PagesPerDisk() []int {
	out := make([]int, len(t.state.PagesPerDisk))
	copy(out, t.state.PagesPerDisk)
	return out
}

// NodeCreated implements rtree.Listener: run the declustering policy and
// record the placement. The cylinder is drawn uniformly (paper §4.1:
// "each newly generated node ... is assigned a cylinder value with
// respect to the uniform distribution").
func (t *Tree) NodeCreated(n *rtree.Node, siblingIDs []rtree.PageID) {
	if _, ok := t.placements[n.ID]; ok {
		return // e.g. root re-reported by SetListener
	}
	var mbr geom.Rect
	if len(n.Entries) > 0 {
		mbr = n.MBR()
	} else {
		// Fresh empty root: a degenerate rect at the origin of the
		// configured dimensionality.
		z := make(geom.Point, t.cfg.Dim)
		mbr = geom.PointRect(z)
	}
	// Sibling MBRs are read live from the store — a sibling's extent may
	// have grown since it was placed, and the policy should see current
	// geometry.
	dim := t.cfg.Dim
	if cap(t.sibs) < len(siblingIDs) {
		t.sibs = make([]decluster.Sibling, 0, len(siblingIDs))
		t.sibSlab = make([]float64, 2*dim*len(siblingIDs))
	}
	sibs, slab := t.sibs[:0], t.sibSlab
	for _, id := range siblingIDs {
		if pl, ok := t.placements[id]; ok {
			sib := t.Store().Get(id)
			if len(sib.Entries) == 0 {
				continue
			}
			r := geom.Rect{Lo: slab[:dim:dim], Hi: slab[dim : 2*dim : 2*dim]}
			slab = slab[2*dim:]
			sib.MBRInto(r)
			sibs = append(sibs, decluster.Sibling{Page: id, Rect: r, Disk: pl.Disk})
		}
	}
	t.sibs = sibs
	d := t.policy.Assign(mbr, sibs, t.state)
	if d < 0 || d >= t.cfg.NumDisks {
		panic(fmt.Sprintf("parallel: policy %s returned disk %d of %d", t.policy.Name(), d, t.cfg.NumDisks))
	}
	pl := Placement{Disk: d, Cylinder: t.rnd.Intn(t.cfg.Cylinders)}
	t.placements[n.ID] = pl
	t.rects[n.ID] = mbr
	t.state.PagesPerDisk[d]++
	t.state.AreaPerDisk[d] += mbr.Area()
	if t.state.HasSpace {
		t.state.Space.UnionInPlace(mbr)
	} else {
		t.state.Space = mbr.Clone()
		t.state.HasSpace = true
	}
}

// NodeFreed implements rtree.Listener.
func (t *Tree) NodeFreed(id rtree.PageID) {
	pl, ok := t.placements[id]
	if !ok {
		return
	}
	t.state.PagesPerDisk[pl.Disk]--
	if r, ok := t.rects[id]; ok {
		t.state.AreaPerDisk[pl.Disk] -= r.Area()
	}
	delete(t.placements, id)
	delete(t.rects, id)
}

// RootChanged implements rtree.Listener.
func (t *Tree) RootChanged(rtree.PageID) {}

// DistributionStats summarizes how well pages are spread across disks.
type DistributionStats struct {
	Pages     []int   // per-disk page counts
	Total     int     // total live pages
	Imbalance float64 // max/mean page count; 1.0 is perfect balance
}

// Distribution computes page-spread statistics.
func (t *Tree) Distribution() DistributionStats {
	pages := t.PagesPerDisk()
	total, maxP := 0, 0
	for _, c := range pages {
		total += c
		if c > maxP {
			maxP = c
		}
	}
	st := DistributionStats{Pages: pages, Total: total}
	if total > 0 {
		mean := float64(total) / float64(len(pages))
		st.Imbalance = float64(maxP) / mean
	}
	return st
}

// BuildPoints loads points one by one (the paper constructs trees
// incrementally). Object IDs are the point indices.
func (t *Tree) BuildPoints(pts []geom.Point) error {
	for i, p := range pts {
		if err := t.InsertPoint(p, rtree.ObjectID(i)); err != nil {
			return fmt.Errorf("parallel: insert %d: %w", i, err)
		}
	}
	return nil
}

// BuildPointsPacked bulk-loads points with STR packing (the "complete
// reorganization" the paper's dynamic setting rules out — provided here
// so the packing ablation can measure what it would buy). Object IDs
// are the point indices. The tree must be empty.
func (t *Tree) BuildPointsPacked(pts []geom.Point) error {
	items := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		items[i] = rtree.LeafEntry(geom.PointRect(p.Clone()), rtree.ObjectID(i))
	}
	return t.Tree.BulkLoadSTR(items)
}

// CheckPlacements verifies that every live page has a placement and that
// the per-disk counters match reality. Tests and treestat call it.
func (t *Tree) CheckPlacements() error {
	live := make(map[rtree.PageID]bool)
	t.Walk(func(n *rtree.Node, _ int) bool {
		live[n.ID] = true
		return true
	})
	for id := range live {
		pl, ok := t.placements[id]
		if !ok {
			return fmt.Errorf("parallel: live page %d unplaced", id)
		}
		if pl.Cylinder < 0 || pl.Cylinder >= t.cfg.Cylinders {
			return fmt.Errorf("parallel: page %d cylinder %d out of range", id, pl.Cylinder)
		}
	}
	counts := make([]int, t.cfg.NumDisks)
	for id, pl := range t.placements {
		if !live[id] {
			return fmt.Errorf("parallel: placement for dead page %d", id)
		}
		counts[pl.Disk]++
	}
	for d, c := range counts {
		if c != t.state.PagesPerDisk[d] {
			return fmt.Errorf("parallel: disk %d counter %d != actual %d", d, t.state.PagesPerDisk[d], c)
		}
	}
	return nil
}
