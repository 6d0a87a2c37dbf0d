package rtree

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// pageView is a decoded page's view together with the memory behind it:
// what a ViewPool hands out and takes back in one piece. The view
// points at its pageView (FlatNode.owner), so whoever holds the view
// can return all of it.
type pageView struct {
	FlatNode
	slab   []float64   // backs every SoA column
	hdr    [][]float64 // the column headers
	refs   []PageRef   // the identity column at full capacity
	pooled bool        // in the pool's free list (guards against a double Put)
}

// ViewPool recycles the memory of decoded page views — the FlatNode,
// its axis-major slab, its column headers and its identity column — for
// an owner that knows when a view has no reader left. The pool itself
// knows nothing about readers: Put is a promise by the caller that the
// view is unreachable, and the next NewPageView overwrites every byte
// of it. An owner in doubt must not Put; a view that is never put back
// is simply collected. Safe for concurrent use.
type ViewPool struct {
	mu      sync.Mutex
	free    []*pageView // guarded by mu
	limit   int
	entries int    // guarded by mu: the fullest page seen; fresh columns are cut for it
	reused  uint64 // guarded by mu
}

// NewViewPool returns a pool that keeps at most limit idle views.
func NewViewPool(limit int) *ViewPool { return &ViewPool{limit: limit} }

// Len returns the number of idle views.
func (p *ViewPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Reused returns how many views the pool has handed out again.
func (p *ViewPool) Reused() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reused
}

// Put hands views nobody can reach any more back to the pool. Views the
// pool did not hand out (live-node views, pool-less decodes) and views
// beyond the pool's limit are left to the collector.
func (p *ViewPool) Put(views ...*FlatNode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range views {
		v := f.owner
		if v == nil {
			continue
		}
		if v.pooled {
			panic("rtree: page view returned to its pool twice")
		}
		if len(p.free) < p.limit {
			v.pooled = true
			p.free = append(p.free, v)
		}
	}
}

// take pops an idle view, if there is one, and returns the entry count
// to cut fresh columns for: the fullest page seen, so that a recycled
// view soon fits every page.
func (p *ViewPool) take(m int) (*pageView, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = max(p.entries, m)
	n := len(p.free)
	if n == 0 {
		return nil, p.entries
	}
	v := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	v.pooled = false
	p.reused++
	return v, p.entries
}

// newPageView is NewPageView on pooled memory: a recycled view is
// re-pointed at columns of the new page's shape, and whatever part of
// its memory is too small is replaced.
func (p *ViewPool) newPageView(id PageID, level, dim, m int, spheres bool) (*FlatNode, []PageRef) {
	v, room := p.take(m)
	if v == nil {
		v = new(pageView)
	}
	f := &v.FlatNode
	f.ID, f.Level, f.owner = id, level, v
	f.Rects, f.Spheres, f.refs = geom.RectSoA{}, nil, nil
	if m == 0 {
		return f, nil
	}
	cols, hdrs := columnCounts(dim, spheres)
	if cap(v.slab) < cols*m {
		v.slab = make([]float64, cols*room)
	}
	if len(v.hdr) != hdrs {
		v.hdr = make([][]float64, hdrs)
	}
	if cap(v.refs) < m {
		v.refs = make([]PageRef, room)
	}
	f.refs = v.refs[:m]
	f.setColumns(v.slab, v.hdr, dim, m, spheres)
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
