package query

import "sync"

// scratch is the working memory of one query: every buffer a stage
// fills and the traversal state that outlives a stage. newBase takes
// one from scratchPool and base.Release hands it back, so a warm query
// allocates only what its caller keeps: the execution, its per-disk
// counters and the results. Two executions never share a scratch.
// Nothing in a released scratch points into the tree or at an
// execution, so a pooled scratch keeps neither alive.
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

	best bestList // the best-list executions' k best objects and their points
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
	clear(s.best.points) // a pooled scratch must not pin the tree's nodes
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
