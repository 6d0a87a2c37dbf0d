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
	Dim       int
	NumDisks  int
	Cylinders int // cylinders per disk, for uniform cylinder assignment
	// MaxEntries is the node capacity: a leaf's, and a directory
	// node's too when set. 0 derives both from PageSize and the on-page
	// layout (pagestore.Codec): a leaf holds points and object ids, a
	// directory page rectangles (and spheres in an SR tree), so a leaf
	// holds more.
	MaxEntries int
	PageSize   int // bytes; used when MaxEntries == 0 (default 4096)
	Policy     decluster.Policy
	Seed       int64 // drives cylinder assignment (and Random policy if shared)
	// UseSpheres selects the SR-tree variant: directory entries carry
	// bounding spheres (reducing the directory fanout accordingly) and
	// queries intersect the rectangle and sphere bounds.
	UseSpheres bool
	// MaxOverlapRatio enables the X-tree supernode variant (see
	// rtree.Config.MaxOverlapRatio); 0 disables it.
	MaxOverlapRatio float64
	// Store, when non-nil, is the node store the tree is built over
	// (e.g. a pagestore.DurableStore for a disk-backed tree). Nil uses
	// an in-memory store.
	Store rtree.Store

	// dirEntries is the directory capacity fill derived.
	dirEntries int
}

// Codec returns the on-page layout of the tree's pages.
func (cfg Config) Codec() pagestore.Codec {
	return pagestore.Codec{Dim: cfg.Dim, PageSize: cfg.PageSize, Spheres: cfg.UseSpheres}
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
	cfg.dirEntries = cfg.MaxEntries
	if cfg.MaxEntries == 0 {
		// What fits one page of the on-page layout, but never below the
		// tree's minimum fanout: MaxEntries is the leaf capacity, never
		// below the directory's, so it bounds every page's entries.
		codec := cfg.Codec()
		cfg.MaxEntries = max(4, codec.Capacity(0))
		cfg.dirEntries = max(4, codec.Capacity(1))
	}
	return nil
}

// rtreeConfig is the base-tree geometry implied by the array config.
func (cfg Config) rtreeConfig() rtree.Config {
	return rtree.Config{
		Dim:             cfg.Dim,
		MaxEntries:      cfg.dirEntries,
		LeafMaxEntries:  cfg.MaxEntries,
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
		placements: make(map[rtree.PageID]placed),
		rnd:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Tree is an R*-tree declustered over a disk array.
type Tree struct {
	*rtree.Tree
	cfg        Config
	policy     decluster.Policy
	state      *decluster.ArrayState
	placements map[rtree.PageID]placed
	rnd        *rand.Rand
	// created counts the pages ever placed: the cylinder stream, and the
	// policies that keep a stream or a cursor, advanced once for each.
	created uint64
	// stateRec is the state record Commit encodes, reused.
	stateRec []byte

	// sibs is where NodeCreated hands the policy the siblings: the tree
	// has one writer, and no policy keeps them past Assign.
	sibs []decluster.Sibling
}

// placed is a page's placement and the area its MBR had when it was
// placed: what NodeFreed takes back from the disk's area.
type placed struct {
	Placement
	area float64
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

// Config returns the array configuration.
func (t *Tree) Config() Config { return t.cfg }

// NumDisks returns the array width.
func (t *Tree) NumDisks() int { return t.cfg.NumDisks }

// Placement returns the disk/cylinder of a page.
func (t *Tree) Placement(id rtree.PageID) (Placement, bool) {
	p, ok := t.placements[id]
	return p.Placement, ok
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
func (t *Tree) NodeCreated(n *rtree.Node, mbr geom.Rect, siblings []rtree.Entry) {
	if _, ok := t.placements[n.ID]; ok {
		return // e.g. root re-reported by SetListener
	}
	if len(mbr.Lo) == 0 {
		// Fresh empty root: a degenerate rect at the origin of the
		// configured dimensionality.
		mbr = geom.PointRect(make(geom.Point, t.cfg.Dim))
	}
	// The siblings' rectangles are their current covers: a sibling's
	// extent may have grown since it was placed, and the policy should
	// see current geometry.
	sibs := t.sibs[:0]
	for _, e := range siblings {
		if pl, ok := t.placements[e.Child]; ok {
			sibs = append(sibs, decluster.Sibling{Page: e.Child, Rect: e.Rect, Disk: pl.Disk})
		}
	}
	t.sibs = sibs
	d := t.policy.Assign(mbr, sibs, t.state)
	if d < 0 || d >= t.cfg.NumDisks {
		panic(fmt.Sprintf("parallel: policy %s returned disk %d of %d", t.policy.Name(), d, t.cfg.NumDisks))
	}
	area := mbr.Area()
	t.placements[n.ID] = placed{Placement{Disk: d, Cylinder: t.rnd.Intn(t.cfg.Cylinders)}, area}
	t.created++
	t.state.PagesPerDisk[d]++
	t.state.AreaPerDisk[d] += area
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
	t.state.AreaPerDisk[pl.Disk] -= pl.area
	delete(t.placements, id)
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
