package query

import (
	"sync"

	"repro/internal/rtree"
)

// scratch is the working memory of one query: every buffer a stage
// fills and the traversal state that outlives a stage. newBase takes
// one from scratchPool and base.Release hands it back, so a warm query
// allocates only what its caller keeps (the execution with its Stats,
// and the results). Two executions never share a scratch. Nothing in a
// released scratch points into the tree or at an execution, so a pooled
// scratch keeps neither alive.
type scratch struct {
	cands   []candidate // the stage's candidate array (makeCandidates)
	kern    candScratch // batch-kernel output views of one makeCandidates pass
	scanBuf []float64   // leafDmin / entrySphereRectMin output
	scanTmp []float64
	lemma   []lemmaItem // lemma1BoundSq's selection heap

	// CRSS's split of a stage's survivors into activated and saved.
	actives []candidate
	saved   []candidate

	// arena is append-only for the life of the query: the runs on the
	// CRSS stack and the BBSS frames are cut from it. They may alias it
	// (and, after it has grown, its earlier backing arrays) because a
	// run is only ever re-sliced, never written.
	arena    []candidate
	stack    runStack    // CRSS
	frames   []bbssFrame // BBSS
	frontier []bfssItem  // BFSS

	reqs []PageRequest // backing of StepResult.Requests

	rects rectSlots // the best list's rectangles, when they were read from pooled views

	// Shared-cache admission lists, see base.admitDelivered.
	pendingAdmit   []rtree.PageID
	stageRequested []rtree.PageID
}

// rectSlots is where an execution keeps the rectangles of its best list
// when they cannot stay where they were read: a decoded page view lends
// none (a pooled one is refilled once the stage that was handed it is
// over), so the rectangle of an accepted neighbour is copied out — not
// into memory of its own, which would be one allocation per offer, but
// into one of cap(list.items) slots cut from a slab that is pooled with
// the scratch. The list holds at most one neighbour fewer than that, and
// the slot of a neighbour that falls off the list is the next offer's.
// The bookkeeping is here and not in bestList or the execution so that
// a query over live nodes (rtree.FlatNode.Live) — whose rectangles alias
// the nodes, as ever — pays nothing for it, not even a size class.
type rectSlots struct {
	list  *bestList // the list whose rectangles are slots; nil while none is
	width int       // coordinates per slot: 2·dim
	slab  []float64
	cut   int       // slots cut from slab so far
	spare []float64 // the slot of the neighbour that fell off the list last
}

// adopt moves bl's rectangles into slots of width coordinates each.
// From here on every rectangle of the list is a slot, whatever view it
// is read from, so the one that falls off is always a slot to reuse.
func (rs *rectSlots) adopt(bl *bestList, width int) {
	rs.list, rs.width, rs.cut, rs.spare = bl, width, 0, nil
	if need := cap(bl.items) * width; cap(rs.slab) < need {
		rs.slab = make([]float64, need)
	}
	for i := range bl.items {
		r := &bl.items[i].Rect
		c := rs.slot()
		copy(c, r.Lo)
		copy(c[width/2:], r.Hi)
		r.Lo, r.Hi = c[:width/2], c[width/2:]
	}
}

// slot returns a free slot.
func (rs *rectSlots) slot() []float64 {
	if c := rs.spare; c != nil {
		rs.spare = nil
		return c
	}
	c := rs.slab[rs.cut*rs.width : (rs.cut+1)*rs.width : (rs.cut+1)*rs.width]
	rs.cut++
	return c
}

// detach gives the list memory of its own again: its rectangles are
// copied out of the slots into one slab nobody else writes. Results
// does this before it hands anything out, Release before the slots go
// back to the pool.
func (rs *rectSlots) detach() {
	bl := rs.list
	if bl == nil {
		return
	}
	rs.list, rs.spare = nil, nil
	w, dim := rs.width, rs.width/2
	own := make([]float64, len(bl.items)*w)
	for i := range bl.items {
		r := &bl.items[i].Rect
		c := own[i*w : (i+1)*w : (i+1)*w]
		copy(c, r.Lo)
		copy(c[dim:], r.Hi)
		r.Lo, r.Hi = c[:dim:dim], c[dim:]
	}
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// keep copies a run into the arena and returns the copy, which stays
// valid until the scratch is released.
func (s *scratch) keep(run []candidate) []candidate {
	n := len(s.arena)
	s.arena = append(s.arena, run...)
	return s.arena[n:len(s.arena):len(s.arena)]
}

// reset empties the state that accumulates over a query; the per-stage
// buffers are truncated where they are filled.
func (s *scratch) reset() {
	s.arena = s.arena[:0]
	s.stack.runs = s.stack.runs[:0]
	s.frames = s.frames[:0]
	s.frontier = s.frontier[:0]
	s.pendingAdmit = s.pendingAdmit[:0]
	s.stageRequested = s.stageRequested[:0]
}

// heapPush adds x to the binary heap h, ordered so that the element
// before every other is at h[0].
func heapPush[T any](h []T, x T, before func(a, b T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPop removes h[0] from the non-empty heap h.
func heapPop[T any](h []T, before func(a, b T) bool) []T {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}
