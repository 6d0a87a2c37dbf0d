package rtree

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/lockrank"
)

// pageView is a decoded page's view together with the memory behind it:
// what a ViewPool hands out and takes back in one piece. The view
// points at its pageView (FlatNode.owner), so whoever holds the view
// can return all of it — and the owner's bookkeeping lives here, beside
// the view, not in it.
type pageView struct {
	FlatNode
	slab []float64   // backs every SoA column
	hdr  [][]float64 // the column headers
	refs []PageRef   // the identity column at full capacity
	// holds is the owner's count of the view's readers (see
	// FlatNode.Hold). Zeroed each time the pool hands the view out.
	holds  atomic.Int64
	pooled bool // in the pool's free list (guards against a double Put)
}

// Hold takes n holds on a pooled view, one for each reader it is about
// to be handed to. The owner calls it while the view cannot be released
// in between: as it decodes the view, or while it has a hold of its own
// that is not yet given away. A view no pool owns is not counted.
func (f *FlatNode) Hold(n int) {
	if v := f.owner; v != nil {
		v.holds.Add(int64(n))
	}
}

// Release drops one hold and reports whether it was the last: nobody
// can reach the view any more, and the caller — alone — may Put it
// back. A view whose holds are never all dropped is simply collected.
func (f *FlatNode) Release() bool {
	v := f.owner
	if v == nil {
		return false
	}
	n := v.holds.Add(-1)
	if n < 0 {
		panic("rtree: page view released more often than held")
	}
	return n == 0
}

// ViewPool recycles the memory of decoded page views — the FlatNode,
// its axis-major slab, its column headers and its identity column — for
// an owner that knows when a view has no reader left (Hold, Release).
// The pool itself knows nothing about readers: Put is a promise by the
// caller that the view is unreachable, and the next NewPageView
// overwrites every byte of it. An owner in doubt must not Put; a view
// that is never put back is simply collected. The pool makes a view
// only when none is idle and keeps every one it is given back, so the
// views it has made number what its owner had out at once at most — a
// fixed set of frames once the owner is warm. Safe for concurrent use.
type ViewPool struct {
	mu      lockrank.Mutex[lockrank.Leaf]
	free    []*pageView // guarded by mu
	entries int         // guarded by mu: the fullest page seen; fresh columns are cut for it
	made    uint64      // guarded by mu
	reused  uint64      // guarded by mu
}

// ViewStats counts a pool's frames: how many views it has made, how
// often it handed one out again instead (both cumulative), and how
// many are idle now (a gauge).
type ViewStats struct {
	Made   uint64
	Reused uint64
	Idle   int
}

// NewViewPool returns an empty pool whose idle list has room for the
// frames views its owner expects to have out at once. No view is made
// before the first NewPageView asks for one.
func NewViewPool(frames int) *ViewPool {
	return &ViewPool{free: make([]*pageView, 0, frames)}
}

// Stats returns the pool's counters; no pool (nil) has made nothing.
func (p *ViewPool) Stats() ViewStats {
	if p == nil {
		return ViewStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return ViewStats{Made: p.made, Reused: p.reused, Idle: len(p.free)}
}

// Put hands a view nobody can reach any more back to the pool. A view
// the pool did not hand out (a live-node view, a pool-less decode) is
// left to the collector.
func (p *ViewPool) Put(f *FlatNode) {
	v := f.owner
	if v == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.pooled {
		panic("rtree: page view returned to its pool twice")
	}
	v.pooled = true
	p.free = append(p.free, v)
}

// take pops an idle view, or makes one when none is idle, and returns
// it with the entry count to cut fresh columns for: the fullest page
// seen, so that a recycled view soon fits every page.
func (p *ViewPool) take(m int) (*pageView, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = max(p.entries, m)
	n := len(p.free)
	if n == 0 {
		p.made++
		return new(pageView), p.entries
	}
	v := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	v.pooled = false
	v.holds.Store(0)
	p.reused++
	return v, p.entries
}

// newPageView is NewPageView on pooled memory: a recycled view is
// re-pointed at columns of the new page's shape, and whatever part of
// its memory is too small is replaced.
func (p *ViewPool) newPageView(id PageID, level, dim, m int, c Columns) (*FlatNode, []PageRef) {
	v, room := p.take(m)
	f := &v.FlatNode
	f.ID, f.Level, f.owner = id, level, v
	f.Rects, f.Spheres, f.refs = geom.RectSoA{}, nil, nil
	if m == 0 {
		return f, nil
	}
	cols, hdrs := columnCounts(dim, c)
	if cap(v.slab) < cols*m {
		v.slab = make([]float64, cols*room)
	}
	if cap(v.hdr) < hdrs {
		v.hdr = make([][]float64, hdrs)
	}
	if cap(v.refs) < m {
		v.refs = make([]PageRef, room)
	}
	f.refs = v.refs[:m]
	f.setColumns(v.slab, v.hdr[:hdrs], dim, m, c)
	return f, f.refs
}

// PoisonView overwrites everything a pooled view holds — id, level,
// every column, every reference — with values no page has (-1, NaN). It
// is for tests of a view's owner: poisoning a view at the moment the
// owner declares it unreachable turns a reader the owner missed into a
// wrong answer at once, instead of when the memory happens to be
// refilled. Views no pool owns are left alone.
func PoisonView(f *FlatNode) {
	v := f.owner
	if v == nil {
		return
	}
	f.ID, f.Level = -1, -1
	for i := range v.slab {
		v.slab[i] = math.NaN()
	}
	refs := v.refs[:cap(v.refs)]
	for i := range refs {
		refs[i] = PageRef{Ref: -1, Count: math.MaxUint32}
	}
}
