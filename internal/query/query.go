// Package query implements the four disk-array k-NN algorithms of
// Papadopoulos & Manolopoulos (SIGMOD 1998, Section 3) over a parallel
// R*-tree:
//
//   - BBSS — Branch-and-Bound Similarity Search (Roussopoulos et al.,
//     SIGMOD 1995): depth-first, one page fetched at a time, no
//     intra-query parallelism.
//   - FPSS — Full-Parallel Similarity Search: breadth-first, every
//     candidate page of a level fetched in one parallel batch.
//   - CRSS — Candidate-Reduction Similarity Search (the paper's
//     contribution): a BFS/DFS hybrid driven by the Lemma-1 threshold,
//     the candidate-reduction criterion and a stack of candidate runs,
//     with the activation batch bounded by the number of disks.
//   - WOPTSS — the hypothetical Weak-OPTimal algorithm: given the exact
//     k-th neighbor distance by an oracle, it fetches only pages whose
//     MBR intersects the query sphere (the lower bound for any
//     algorithm).
//
// Every algorithm is expressed as a stage-driven Execution: the driver —
// either the immediate Driver below (used for node-access experiments
// and correctness tests) or the event-driven system simulator (package
// simarray) — fetches the requested pages and hands them back, so the
// same algorithm code is timed under queueing, seeks and bus contention
// without modification.
package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// PageRequest asks the driver to fetch one node from the array. Pages
// is the number of sequential disk pages the node occupies (1 for
// ordinary nodes, more for X-tree supernodes).
type PageRequest struct {
	Page     rtree.PageID
	Disk     int
	Cylinder int
	Pages    int
	Cached   bool // memory-resident (no disk I/O); still a node visit
}

// StepResult is what an Execution returns from one processing stage.
type StepResult struct {
	// Requests lists the pages to fetch before the next step. Pages on
	// different disks are fetched in parallel; pages on the same disk
	// queue up. The slice belongs to the execution and is valid until
	// its next Step.
	Requests []PageRequest
	// Instructions is the CPU work of this stage under the paper's cost
	// model: 2N + 3M·log2(M) instructions for scanning N entries and
	// sorting M survivors (§4.1).
	Instructions float64
}

// Execution is a stage-driven k-NN query run.
type Execution interface {
	// Step processes pages delivered for the previous request batch
	// (nil on the first call) and returns the next batch. An empty
	// request list means the query has completed. The execution does
	// not retain delivered; the driver may reuse it for the next stage.
	// A delivered page is its read-only view (rtree.FlatNode), whether
	// the driver took it from a live node or decoded it from an image.
	Step(delivered []*rtree.FlatNode) StepResult
	// Done reports whether the query has produced its final answer.
	Done() bool
	// Results returns the k nearest neighbors, ordered by distance.
	// Valid once Done.
	Results() []Neighbor
	// Stats returns access counters accumulated so far.
	Stats() *Stats
	// Release hands the execution's scratch memory back for reuse by
	// later queries. The driver calls it once the query has finished or
	// failed; Step must not be called afterwards (it panics). Results
	// and the Stats pointer stay valid. A second call is a no-op, and a
	// missed call only costs garbage.
	Release()
}

// Neighbor is one answer: an object and its squared distance.
type Neighbor struct {
	Object rtree.ObjectID
	Rect   geom.Rect
	DistSq float64
}

// Stats aggregates the per-query counters the experiments report.
type Stats struct {
	NodesVisited int   // pages delivered (the paper's "visited nodes")
	DiskAccesses int   // pages that caused physical reads (excludes cached)
	Batches      int   // parallel fetch rounds
	MaxParallel  int   // largest single batch
	PerDisk      []int // physical reads per disk
	Scanned      int   // total entries scanned (N in the CPU model)
	Sorted       int   // total entries sorted  (M in the CPU model)
	Instructions float64
}

// cpuCost is the paper's CPU model: 2N + 3M·log2(M) instructions.
func cpuCost(scanned, sorted int) float64 {
	c := 2 * float64(scanned)
	if sorted > 1 {
		c += 3 * float64(sorted) * math.Log2(float64(sorted))
	}
	return c
}

// Options tunes execution behavior shared by all algorithms.
type Options struct {
	// CachedLevels pins the top CachedLevels levels of the tree in
	// memory: pages there are visited without disk requests. 0
	// reproduces the paper (every page, including the root, is read
	// from its disk).
	CachedLevels int
	// Trace, when non-nil, receives one line per algorithm stage —
	// CRSS reports its operating mode transitions (ADAPTIVE, UPDATE,
	// NORMAL, TERMINATE; the paper's Figure 6 state machine). For
	// debugging and teaching; nil costs nothing — call sites test it
	// before they gather or format a line's arguments.
	Trace func(line string)
	// Observer, when non-nil, receives the structured trace events of
	// package obs: the algorithm emits the driver-independent core
	// schema (QueryStart, StageIssue, FetchIssue, QueryEnd) and each
	// driver adds its completions (FetchDone, StageDone) with its own
	// clock — wall time under the immediate driver and the engine,
	// virtual seconds under the simulator. Must be safe for concurrent
	// use when one observer is shared across queries; nil costs
	// nothing.
	Observer obs.QueryObserver
}

// Algorithm builds executions; implementations are stateless and safe to
// reuse across queries.
type Algorithm interface {
	Name() string
	NewExecution(t *parallel.Tree, q geom.Point, k int, opts Options) Execution
}

// base carries the plumbing shared by all algorithms.
type base struct {
	tree  *parallel.Tree
	q     geom.Point
	k     int
	opts  Options
	stats Stats
	done  bool
	// sc is the query's pooled working memory; nil once released.
	sc *scratch
	// res is what Results returned once the query was done.
	res []Neighbor
	// stage numbers the fetch rounds for trace events; started flags
	// the QueryStart emission.
	stage      int
	obsStarted bool
}

// leafDmin returns Dmin²(q, entry) for every entry of the page, computed
// with the batch kernel (over a point leaf's one column set, the point
// kernel). The returned slice is the execution's scratch buffer, valid
// until the next scan call.
func (b *base) leafDmin(n *rtree.FlatNode) []float64 {
	out := b.scanBuf(n.Len())
	geom.MinDistSqBatch(b.q, &n.Rects, out)
	return out
}

// scanBuf returns the scan output buffer sized for m entries.
func (b *base) scanBuf(m int) []float64 {
	if cap(b.sc.scanBuf) < m {
		b.sc.scanBuf = make([]float64, m)
	}
	return b.sc.scanBuf[:m]
}

// entrySphereRectMin returns the intersected rect/sphere lower bound
// SphereRectMin(q, entry) for every entry of the page. Scratch-backed
// like leafDmin.
func (b *base) entrySphereRectMin(f *rtree.FlatNode) []float64 {
	m := f.Len()
	out := b.scanBuf(m)
	if cap(b.sc.scanTmp) < m {
		b.sc.scanTmp = make([]float64, m)
	}
	geom.SphereRectMinBatch(b.q, &f.Rects, f.Spheres, out, b.sc.scanTmp[:m])
	return out
}

func newBase(t *parallel.Tree, q geom.Point, k int, opts Options) base {
	sc := scratchPool.Get().(*scratch)
	sc.best.reset(k, t.Len(), len(q))
	return base{
		tree:  t,
		q:     q,
		k:     k,
		opts:  opts,
		stats: Stats{PerDisk: make([]int, t.NumDisks())},
		sc:    sc,
	}
}

// Release implements Execution for every algorithm.
func (b *base) Release() {
	if b.sc == nil {
		return
	}
	if b.done {
		b.Results() // the list is the scratch's: keep what it answered
	}
	b.sc.reset()
	scratchPool.Put(b.sc)
	b.sc = nil
}

func (b *base) Done() bool    { return b.done }
func (b *base) Stats() *Stats { return &b.stats }

// tracef emits a trace line. Callers guard it with opts.Trace != nil so
// that an untraced query neither boxes the arguments nor computes them.
func (b *base) tracef(format string, args ...interface{}) {
	b.opts.Trace(fmt.Sprintf(format, args...))
}

// request builds a PageRequest for a page, honoring level caching, and
// accounts for the upcoming visit.
func (b *base) request(id rtree.PageID, level int) PageRequest {
	pl, ok := b.tree.Placement(id)
	if !ok {
		panic(fmt.Sprintf("query: page %d unplaced", id))
	}
	cached := b.opts.CachedLevels > 0 && level >= b.tree.Height()-b.opts.CachedLevels
	pages := b.tree.Store().Get(id).Pages(b.tree.Capacity(level))
	return PageRequest{Page: id, Disk: pl.Disk, Cylinder: pl.Cylinder, Pages: pages, Cached: cached}
}

// single is a stage's request list of one page.
func (b *base) single(id rtree.PageID, level int) []PageRequest {
	return append(b.sc.reqs[:0], b.request(id, level))
}

// requestRoot is the first stage of a traversal: fetch the root page.
func (b *base) requestRoot() StepResult {
	return b.finishStep(b.single(b.tree.Root(), b.tree.Height()-1), 0, 0)
}

// account records a finished batch in the stats.
func (b *base) account(reqs []PageRequest) {
	if len(reqs) == 0 {
		return
	}
	b.stats.Batches++
	if len(reqs) > b.stats.MaxParallel {
		b.stats.MaxParallel = len(reqs)
	}
	for _, r := range reqs {
		b.stats.NodesVisited++
		if !r.Cached {
			b.stats.DiskAccesses += r.Pages
			b.stats.PerDisk[r.Disk] += r.Pages
		}
	}
}

// finishStep tallies CPU cost for a stage, emits the stage's trace
// events and stamps the result. reqs
// is nil or built on the scratch's request buffer.
func (b *base) finishStep(reqs []PageRequest, scanned, sorted int) StepResult {
	if b.sc == nil {
		panic("query: Step after Release")
	}
	b.stats.Scanned += scanned
	b.stats.Sorted += sorted
	inst := cpuCost(scanned, sorted)
	b.stats.Instructions += inst
	b.account(reqs)
	if ob := b.opts.Observer; ob != nil {
		if !b.obsStarted {
			b.obsStarted = true
			ob.Observe(obs.Event{Type: obs.QueryStart})
		}
		if len(reqs) > 0 {
			ob.Observe(obs.Event{Type: obs.StageIssue, Stage: b.stage, Batch: len(reqs)})
			for _, r := range reqs {
				ob.Observe(obs.Event{
					Type: obs.FetchIssue, Stage: b.stage,
					Page: int64(r.Page), Disk: r.Disk, Pages: r.Pages, Cached: r.Cached,
				})
			}
		}
	}
	if len(reqs) == 0 {
		if ob := b.opts.Observer; ob != nil && b.done {
			ob.Observe(obs.Event{Type: obs.QueryEnd, Stage: b.stage})
		}
	} else {
		b.sc.reqs = reqs[:0] // keep what the stage grew
		b.stage++
	}
	return StepResult{Requests: reqs, Instructions: inst}
}

// ranked is one entry of a best list: an object, its squared distance
// and the slot of the list's slot table that holds its rectangle. It
// holds no pointer, so moving it down the list is a plain copy.
type ranked struct {
	distSq float64
	object rtree.ObjectID
	slot   int
}

// bestList maintains the k current best object distances, sorted. It
// lives in the query's scratch; newBase sets it up.
//
// A rectangle is written once, when its offer is accepted, into the
// slot table: rects[s] aliases a live node's rectangle, or the
// coordinates coords[s·2·dim:(s+1)·2·dim] that a decoded page's were
// copied into (a pooled view is refilled once its stage is over). The
// array items[:cap] holds every slot exactly once, so the free slot is
// always the one the spare element items[len] holds — at first a fresh
// one, once the list is full the slot of the entry the last offer
// pushed off.
type bestList struct {
	k      int
	items  []ranked    // cap min(k, n)+1
	rects  []geom.Rect // the slot table
	coords []float64
	dim    int
	copied bool // some rectangle was copied into coords
}

// reset sets the list up for the k nearest of n objects in dim
// dimensions: one slot beyond the most it holds, so offer never grows
// it.
func (bl *bestList) reset(k, n, dim int) {
	m := min(k, n) + 1
	bl.k, bl.dim, bl.copied = k, dim, false
	if cap(bl.items) < m {
		bl.items = make([]ranked, m)
		bl.rects = make([]geom.Rect, m)
	}
	if need := m * 2 * dim; cap(bl.coords) < need {
		bl.coords = make([]float64, need)
	}
	bl.items = bl.items[:m]
	for i := range bl.items {
		bl.items[i].slot = i
	}
	bl.items = bl.items[:0]
	bl.rects = bl.rects[:m]
}

// offer inserts an object behind every one at most as far, keeping only
// the k nearest, and returns the slot that holds the object's rectangle
// — the spare's when the object itself is the one pushed off.
func (bl *bestList) offer(distSq float64, object rtree.ObjectID) int {
	n := len(bl.items)
	bl.items = bl.items[:n+1]
	slot := bl.items[n].slot
	i := n
	for ; i > 0 && bl.items[i-1].distSq > distSq; i-- {
		bl.items[i] = bl.items[i-1]
	}
	bl.items[i] = ranked{distSq: distSq, object: object, slot: slot}
	if n == bl.k {
		bl.items = bl.items[:n]
	}
	return slot
}

// offerLeaf offers the entries of leaf page n to the execution's best
// list — dists[i] is entry i's squared distance from the query, and an
// entry is offered when that is within limit and within the list's k-th
// distance as it stands: the one way an entry becomes a neighbour — and
// writes the rectangle of every accepted offer into its slot.
func (b *base) offerLeaf(n *rtree.FlatNode, dists []float64, limit float64) {
	bl := &b.sc.best
	live, dim := n.Live(), bl.dim
	for i, d := range dists {
		if d <= limit && d <= bl.kthDistSq() {
			s := bl.offer(d, n.Object(i))
			if live {
				bl.rects[s] = n.Rect(i)
				continue
			}
			c := bl.coords[s*2*dim : (s+1)*2*dim : (s+1)*2*dim]
			n.CopyRect(i, c)
			bl.rects[s] = geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
			bl.copied = true
		}
	}
}

// kthDistSq returns the current k-th best squared distance, or +Inf when
// fewer than k objects have been seen.
func (bl *bestList) kthDistSq() float64 {
	if len(bl.items) < bl.k {
		return math.Inf(1)
	}
	return bl.items[len(bl.items)-1].distSq
}

// results returns the list in the canonical result order, as memory the
// caller owns: the rectangles of live nodes are lent, read-only, like
// the nodes', and when some rectangle was copied out of a decoded page
// all of them are copied once more, into one slab of the caller's.
func (bl *bestList) results() []Neighbor {
	out := make([]Neighbor, len(bl.items))
	w := 2 * bl.dim
	var own []float64
	if bl.copied {
		own = make([]float64, len(bl.items)*w)
	}
	for i, it := range bl.items {
		r := bl.rects[it.slot]
		if own != nil {
			c := own[i*w : (i+1)*w : (i+1)*w]
			copy(c, r.Lo)
			copy(c[bl.dim:], r.Hi)
			r = geom.Rect{Lo: c[:bl.dim:bl.dim], Hi: c[bl.dim:]}
		}
		out[i] = Neighbor{Object: it.object, Rect: r, DistSq: it.distSq}
	}
	sortNeighbors(out)
	return out
}

// Results implements Execution for the best-list algorithms: the list's
// results, computed once and kept, so that they outlive the scratch.
func (b *base) Results() []Neighbor {
	if b.res == nil && b.sc != nil {
		res := b.sc.best.results()
		if !b.done {
			return res
		}
		b.res = res
	}
	return b.res
}

// Fetcher resolves one batch of page requests into page views. The
// returned slice must hold the page for Requests[i] at position i — executions
// rely on request-order delivery for deterministic tie-breaking, so a
// concurrent fetcher must reorder completions before handing them back.
// The execution reads the returned slice only during the Step that
// follows, so a fetcher may reuse it from call to call; reqs in turn is
// the execution's memory (StepResult.Requests) and is valid only until
// that Step, so a fetcher must not keep it. A Fetcher is the driver
// abstraction shared by the three execution environments: the immediate
// Driver below, the event-driven system simulator (package simarray),
// and the real concurrent engine (package exec).
type Fetcher func(reqs []PageRequest) ([]*rtree.FlatNode, error)

// RunWith drives an execution to completion, resolving each stage's
// page requests through fetch. It returns the first fetch error
// (typically a cancelled context in the concurrent engine); on success
// the execution is Done and its Results/Stats are valid.
func RunWith(exec Execution, name string, fetch Fetcher) error {
	var delivered []*rtree.FlatNode
	for {
		sr := exec.Step(delivered)
		if len(sr.Requests) == 0 {
			if !exec.Done() {
				panic(fmt.Sprintf("query: %s returned no requests but is not done", name))
			}
			return nil
		}
		var err error
		delivered, err = fetch(sr.Requests)
		if err != nil {
			return err
		}
		if len(delivered) != len(sr.Requests) {
			panic(fmt.Sprintf("query: %s fetcher returned %d nodes for %d requests",
				name, len(delivered), len(sr.Requests)))
		}
	}
}

// Driver executes a query to completion with immediate page delivery —
// no timing, exact access accounting. It is the engine behind the
// effectiveness experiments (Figures 8 and 9) and all correctness tests.
type Driver struct {
	Tree *parallel.Tree
}

// deliveredPool recycles the Driver's per-query delivery buffers.
var deliveredPool = sync.Pool{New: func() any { return new([]*rtree.FlatNode) }}

// Run executes alg on the driver's tree and returns the results and
// access statistics.
func (d Driver) Run(alg Algorithm, q geom.Point, k int, opts Options) ([]Neighbor, *Stats) {
	exec := alg.NewExecution(d.Tree, q, k, opts)
	defer exec.Release()
	buf := deliveredPool.Get().(*[]*rtree.FlatNode)
	stage := 0
	_ = RunWith(exec, alg.Name(), func(reqs []PageRequest) ([]*rtree.FlatNode, error) {
		var start time.Time // the observer's wall-clock latency; never feeds results
		if opts.Observer != nil {
			start = time.Now()
		}
		delivered := (*buf)[:0]
		for _, r := range reqs {
			delivered = append(delivered, d.Tree.Store().Get(r.Page).Flat())
		}
		*buf = delivered
		if ob := opts.Observer; ob != nil {
			wall := time.Since(start)
			for _, r := range reqs {
				ob.Observe(obs.Event{
					Type: obs.FetchDone, Stage: stage,
					Page: int64(r.Page), Disk: r.Disk, Pages: r.Pages, Cached: r.Cached,
				})
			}
			ob.Observe(obs.Event{Type: obs.StageDone, Stage: stage, Batch: len(reqs), Wall: wall})
		}
		stage++
		return delivered, nil
	})
	clear((*buf)[:cap(*buf)]) // a pooled buffer must not pin the tree's nodes
	deliveredPool.Put(buf)
	return exec.Results(), exec.Stats()
}

// sortNeighbors orders results by distance then object ID, the canonical
// result order used across algorithms so outputs are comparable.
func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.DistSq < b.DistSq:
			return -1
		case a.DistSq > b.DistSq:
			return 1
		}
		return cmp.Compare(a.Object, b.Object)
	})
}
