// Package exec is the real concurrent query-execution engine: it maps
// the paper's N-disk parallelism onto actual goroutines instead of the
// event-driven simulator's virtual clock. One worker goroutine serves
// each simulated disk (more with Config.WorkersPerDisk), reading that
// disk's encoded leaf pages and draining a per-disk fetch channel —
// the Go-native analogue of the paper's array, where a page fetch
// really costs work (a page decode) on the worker that owns the disk.
// As in the paper's model (§4.1), only a page that needs a physical
// read enters a disk queue. The directory (every level above the
// leaves) is memory-resident, like the upper levels of the paper's
// multiplexed R-tree: the engine pins it as query.Options.CachedLevels
// and serves it from the live tree, so the drives serve only leaves.
// The paper's model has no buffer pool, and neither has the engine: New
// decides once whether a leaf is resident or framed. An engine whose
// Config.CachePages covers the leaves serves them from the live tree
// too, on the querying goroutine. Otherwise every leaf is a read of its
// disk, decoded into one of a fixed set of recycled frames (retire.go):
// on the disk's worker, or on the querying goroutine once the engine's
// reads have proven cheaper than the hand-off to a worker
// (serveInline).
//
// The same stage-driven query.Execution state machines that run under
// the immediate Driver and the system simulator run here unchanged: the
// Engine resolves each stage's batched page requests by serving the
// in-memory pages (and, while reads are cheap, the leaves it reads)
// inline and fanning the rest out to the disk workers, collecting
// completions asynchronously, and delivering the nodes in
// request order so results are bit-for-bit identical to the
// sequential paths. Many client goroutines may query a shared Engine
// concurrently; total outstanding page reads are bounded, and queries
// honor context cancellation mid-flight.
package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

// ErrClosed is returned by KNN after Close.
var ErrClosed = errors.New("exec: engine closed")

const (
	// queueDepth is the per-disk fetch channel buffer. When a disk's
	// queue is full, request submission blocks — natural backpressure
	// against one hot disk. Only a framed engine's leaves are queued.
	queueDepth = 32
	// slotsPerWorker is how many outstanding page reads each disk
	// worker is allowed (the in-flight bound, see Engine.sem).
	slotsPerWorker = 4
	// retryBackoff is the pause before a transiently failed read's
	// first retry; it doubles per attempt up to retryMaxBackoff, honoring
	// the query context's deadline.
	retryBackoff    = 200 * time.Microsecond
	retryMaxBackoff = 5 * time.Millisecond
	// retryLimit is how many times a transiently failed read is
	// re-attempted on the same replica before redirecting to a mirror.
	retryLimit = 2
	// degradeAfter marks a replica degraded — skipped by all future
	// reads — after that many consecutive failed I/Os. A fail-stop
	// error (fault.ErrDiskDead) degrades immediately.
	degradeAfter = 4
	// hedgeDelayFloor is the minimum hedge delay, used verbatim until
	// the replica-read latency histogram has enough samples for a
	// meaningful p99.
	hedgeDelayFloor = time.Millisecond
	// A framed engine reads a leaf on the querying goroutine (serveInline)
	// once inlineMinReads replica reads have averaged at most
	// inlineReadMax. A read that cheap costs less than the two goroutine
	// hand-offs a disk worker adds (queue send, delivery), so reading a
	// stage's leaves one after the other beats fanning them out; a slower
	// drive is still read in parallel by its worker.
	inlineMinReads = 64
	inlineReadMax  = 50 * time.Microsecond
)

// Config tunes the engine. The zero value picks sensible defaults.
type Config struct {
	// WorkersPerDisk is the number of goroutines serving each simulated
	// disk's fetch queue (default 1 — the paper's one-arm-per-disk
	// model; more overlaps page decodes on multi-core hosts).
	WorkersPerDisk int
	// CachePages is how many leaves the engine may keep in memory. When
	// it covers every leaf the engine is resident: leaves are served from
	// the live tree on the querying goroutine, no drive is read and, in
	// memory mode, no leaf image is encoded. Otherwise (0 included) the
	// engine is framed: every leaf request is a read of its disk, decoded
	// into a recycled frame, on the disk's worker or, once reads have
	// proven cheap, on the querying goroutine. No other value changes
	// anything.
	CachePages int
	// CoalesceFetches merges concurrent fetches of the same leaf across
	// queries into one disk job: later requests join the in-flight fetch
	// and share its result instead of queueing their own copy. A read on
	// the querying goroutine neither leads nor joins a flight. This is
	// request-level singleflight — the network query service enables it
	// so concurrent clients reading the same pages share fan-outs instead
	// of multiplying queue depth. Results are bit-identical with or
	// without coalescing.
	CoalesceFetches bool
	// Mirrors is the number of physical replicas of every logical
	// disk's page store (default 1 — the paper's RAID-0; 2 models
	// RAID-1 shadowing, mirroring simarray.Config.Mirrors). Reads pick
	// a primary replica per page and redirect to a mirror when the
	// primary fails or is degraded.
	Mirrors int
	// Fault, when non-nil, injects failures and latency spikes into
	// every replica read (drives are keyed disk*Mirrors+mirror). Nil
	// injects nothing and costs nothing. A resident engine (CachePages)
	// reads no leaf from its drives, so nothing is injected into it.
	Fault *fault.Injector
	// HedgeReads fires a duplicate read at a mirror when the primary
	// has not answered within a p99-derived delay (needs Mirrors > 1),
	// at least hedgeDelayFloor. The first answer wins; the loser is
	// discarded.
	HedgeReads bool
	// DataDir, when non-empty, backs every replica with a real
	// file-backed page store (one file per disk×mirror, created under
	// DataDir at construction, closed by Close) instead of in-memory
	// page images. The replica files are then the engine's snapshot of
	// the tree: New replaces any file of the same name (an engine still
	// reading the old one keeps it) and keeps no page image in memory.
	// Reads go through page-aligned pread, so injected faults coexist
	// with genuine I/O errors: a truncated replica file yields a real
	// short read the degraded-mode path must survive.
	DataDir string
}

func (c *Config) fill() {
	if c.WorkersPerDisk <= 0 {
		c.WorkersPerDisk = 1
	}
	if c.Mirrors <= 0 {
		c.Mirrors = 1
	}
}

// Stats are the engine's cumulative counters (monotonic since New).
type Stats struct {
	Queries      uint64 // queries completed successfully
	Cancelled    uint64 // queries aborted by context or Close
	PagesFetched uint64 // leaf fetches served: by a disk worker, or on the querying goroutine (read, or from the live tree)
	Decodes      uint64 // physical page decodes: one per successful replica read, none on a resident engine
	// FetchesCancelled counts fetch jobs abandoned on a cancelled
	// query context — either before a worker picked them up or while
	// the fetch was in flight. No page is delivered for them and they
	// do not count as PagesFetched.
	FetchesCancelled uint64
	// FetchErrors counts fetch jobs that failed with a real I/O error
	// after the read path exhausted every replica, retry and hedge.
	// Distinct from FetchesCancelled: cancellation noise never masks
	// an I/O error, and vice versa.
	FetchErrors uint64
	// FetchesCoalesced counts fetch requests served by joining another
	// query's in-flight fetch of the same page (Config.CoalesceFetches)
	// instead of queueing their own disk job. They do not count as
	// PagesFetched — the flight's leader did.
	FetchesCoalesced uint64
}

// Sub diffs two cumulative snapshots (s taken after prev).
func (s Stats) Sub(prev Stats) Stats { return obs.Diff(s, prev) }

// counters is the live form of Stats: one atomic per Stats field, of
// the same name.
type counters struct {
	Queries          atomic.Uint64
	Cancelled        atomic.Uint64
	PagesFetched     atomic.Uint64
	Decodes          atomic.Uint64
	FetchesCancelled atomic.Uint64
	FetchErrors      atomic.Uint64
	FetchesCoalesced atomic.Uint64
}

// diskStore is one disk's content in memory mode: the encoded image of
// every leaf placed on the disk, built once at engine construction and
// immutable afterwards, so the disk's workers read it without locks.
type diskStore struct {
	codec pagestore.Codec
	pages map[rtree.PageID][]byte
}

// ReadPage implements pagestore.Reader.
func (s *diskStore) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	buf, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("exec: page %d not stored on this disk", id)
	}
	return s.codec.Decode(buf)
}

// replica is one physical copy of a logical disk's page store, with
// its own health state. All replicas of a disk hold the same encoded
// page content; they differ in the (possibly fault-injected) reader and
// in whether they have been marked degraded.
type replica struct {
	disk   int
	mirror int
	reader pagestore.Reader
	// consecFails counts consecutive failed I/Os; any success resets
	// it, and crossing Engine.degradeAfter marks the replica degraded.
	consecFails atomic.Int64
	// degraded replicas are skipped by all future reads.
	degraded atomic.Bool
}

// fetchJob asks a disk worker for one leaf of a stage batch (a framed
// engine's). It travels through the disk queue by value.
type fetchJob struct {
	page      rtree.PageID
	idx       int // position in the stage's request slice
	ctx       context.Context
	sc        *stageScratch // the stage the result is delivered to
	submitted time.Time     // when the job entered the disk queue
	// flight is the coalescer shard holding the flight this job leads
	// (nil without Config.CoalesceFetches): the worker that serves the
	// job resolves the flight.
	flight *coShard
}

type fetchResult struct {
	node *rtree.FlatNode
	err  error
	wall time.Duration // queue wait + service, worker-measured
	hit  bool          // served without a decode: from the live tree or through a coalesced flight
	done bool          // the slot was processed: by a worker, or inline
	// coalesced marks a result delivered through another request's
	// flight (request-level coalescing). A coalesced cancellation may
	// be the flight leader's, not this query's — fetchStage refetches
	// such slots directly while its own context is live.
	coalesced bool
}

// Engine executes k-NN queries concurrently against a shared parallel
// R*-tree. The tree must stay in memory and unmutated while the engine
// is open: the engine serves the directory (and a resident engine's
// leaves) from it, snapshots the leaves at construction (a framed
// engine's into per-disk page images, or with Config.DataDir every
// engine's into the replica files) and reads tree placement metadata
// without locks. A framed file-backed engine's memory is the tree plus
// its frames.
type Engine struct {
	tree     *parallel.Tree
	cfg      Config
	replicas [][]*replica           // [logical disk][mirror]
	files    []*pagestore.FileStore // file-backed replica stores (DataDir mode), closed by Close
	queues   []chan fetchJob
	// sem bounds the outstanding page reads across all queries to
	// slotsPerWorker per disk worker: a framed engine's leaf requests,
	// each holding a slot from submission until its disk worker delivers.
	// Pages served inline take no slot. Admission of further reads blocks
	// once the bound is reached.
	sem      chan struct{}
	resident bool       // leaves are served from the live tree (Config.CachePages)
	co       *coalescer // request-level fetch coalescing (nil unless Config.CoalesceFetches)
	scratch  sync.Pool  // *stageScratch, one per running query

	mu       lockrank.Mutex[lockrank.EngineMu]
	isClosed bool          // guarded by mu
	closed   chan struct{} // signals Close to blocked submitters
	workers  sync.WaitGroup
	running  sync.WaitGroup // admitted queries; raised under mu (begin)

	// Ownership of decoded page views (retire.go).
	views  *rtree.ViewPool // the frames decodes come from and go back to; nil when resident
	poison bool            // tests: scribble over a view as it is recycled

	stats counters

	// hedgeP99Nanos / hedgeRefreshAt cache the p99-derived hedge delay
	// so the hot hedged-read path does not pay a full histogram
	// snapshot per read (see hedgeDelay).
	hedgeP99Nanos  atomic.Int64
	hedgeRefreshAt atomic.Uint64

	// inlineMax bounds the mean replica read under which serveInline
	// reads on the querying goroutine (inlineReadMax; tests raise it to
	// run that path under the race detector, whose reads are slower).
	inlineMax time.Duration
	// retryLimit, degradeAfter and hedgeFloor are the constants of the
	// same names; tests change them after New to reach other paths.
	retryLimit   int
	degradeAfter int64
	hedgeFloor   time.Duration

	// Observability: per-disk gauges and wall-clock latency
	// histograms, always on (single atomic ops on the hot path).
	gauges   []obs.DiskGauges
	faults   obs.FaultCounters
	storage  obs.StorageCounters // file-backed replica I/O (DataDir mode)
	queryLat *obs.Histogram      // successful KNN calls, end to end
	fetchLat *obs.Histogram      // per page fetch: queue wait + service
	readLat  *obs.Histogram      // per successful replica read (service only); feeds the hedge delay
	stageLat *obs.Histogram      // per stage batch: submit to last arrival
	semWait  *obs.Histogram      // per stage: total in-flight-slot wait
}

// New builds an engine over a tree and starts the disk workers; Close
// releases them. One walk of the tree places every leaf on its disk (per
// the tree's declustering placements) and counts the leaves, which
// decides whether the engine is resident (Config.CachePages covers them)
// or framed; the directory is served from the tree either way. In
// memory mode each disk of a framed engine keeps the images of its
// leaves — they are its disk; a resident engine encodes none. With
// Config.DataDir each page is encoded once, into one reused buffer, and
// written to the replica file of every mirror of its disk; nothing keeps
// the image afterwards. The files are the tree's snapshot, so they also
// hold the directory pages that fit one page (all but X-tree
// supernodes), which no query reads from them.
func New(t *parallel.Tree, cfg Config) (*Engine, error) {
	cfg.fill()
	n := t.NumDisks()
	maxInFlight := slotsPerWorker * n * cfg.WorkersPerDisk
	e := &Engine{
		tree:     t,
		cfg:      cfg,
		replicas: make([][]*replica, n),
		queues:   make([]chan fetchJob, n),
		sem:      make(chan struct{}, maxInFlight),
		closed:   make(chan struct{}),
		gauges:   make([]obs.DiskGauges, n),
		queryLat: obs.NewLatencyHistogram(),
		fetchLat: obs.NewLatencyHistogram(),
		readLat:  obs.NewLatencyHistogram(),
		stageLat: obs.NewLatencyHistogram(),
		semWait:  obs.NewLatencyHistogram(),

		inlineMax:    inlineReadMax,
		retryLimit:   retryLimit,
		degradeAfter: degradeAfter,
		hedgeFloor:   hedgeDelayFloor,
	}
	e.scratch.New = func() any { return newStageScratch() }
	codec := t.Config().Codec()
	stored := make([][]*rtree.Node, n) // per disk, the nodes stored as page images
	for d, pages := range t.PagesPerDisk() {
		stored[d] = make([]*rtree.Node, 0, pages)
	}
	leaves := 0
	var buildErr error
	t.Walk(func(nd *rtree.Node, _ int) bool {
		pl, ok := t.Placement(nd.ID)
		if !ok {
			buildErr = fmt.Errorf("exec: live page %d has no placement", nd.ID)
			return false
		}
		if nd.IsLeaf() {
			leaves++
		}
		if nd.IsLeaf() || cfg.DataDir != "" && len(nd.Entries) <= codec.Capacity(nd.Level) {
			stored[pl.Disk] = append(stored[pl.Disk], nd)
		}
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	// Decided before any replica opens: a FileStore keeps a copy of the
	// codec.
	e.resident = cfg.CachePages >= leaves // a tree has a leaf: 0 is framed
	switch {
	case !e.resident:
		e.views = rtree.NewViewPool(maxInFlight)
		codec.Views = e.views
	case cfg.DataDir == "":
		clear(stored) // memory mode stores leaves only, and a resident engine reads none
	}
	// RAID-1 replica set: mirrors hold the disk's content but carry
	// independent fault programs and health state. In DataDir mode each
	// replica owns its own on-disk copy, so a fault on one physical file
	// never corrupts its mirror.
	buf := make([]byte, codec.PageSize) // the image a DataDir build writes from
	for d := 0; d < n; d++ {
		base, err := e.loadDisk(d, stored[d], codec, buf)
		if err != nil {
			return nil, errors.Join(err, e.closeFiles())
		}
		e.replicas[d] = make([]*replica, cfg.Mirrors)
		for m, rd := range base {
			if cfg.Fault != nil {
				rd = cfg.Fault.Reader(d*cfg.Mirrors+m, rd)
			}
			e.replicas[d][m] = &replica{disk: d, mirror: m, reader: rd}
		}
	}
	if cfg.CoalesceFetches {
		e.co = newCoalescer()
	}
	for d := 0; d < n; d++ {
		e.queues[d] = make(chan fetchJob, queueDepth)
		for w := 0; w < cfg.WorkersPerDisk; w++ {
			e.workers.Add(1)
			go e.worker(d)
		}
	}
	return e, nil
}

// ReplicaFileName is the file holding one replica's page store under
// Config.DataDir. Exposed so tests and tools can reach the real file
// (e.g. to truncate it and provoke a genuine short read).
func ReplicaFileName(disk, mirror int) string {
	return fmt.Sprintf("drive-%02d-%d.pages", disk, mirror)
}

// loadDisk stores the pages placed on disk d and returns the base
// (pre-fault-injection) read path of each of its mirrors. Without
// DataDir the mirrors share one in-memory store of the disk's page
// images. With DataDir every mirror gets a new replica file — a file of
// the same name is unlinked first, so an engine still reading it keeps
// its own — and each page is encoded into buf and written to all of
// them.
func (e *Engine) loadDisk(d int, nodes []*rtree.Node, codec pagestore.Codec, buf []byte) ([]pagestore.Reader, error) {
	base := make([]pagestore.Reader, e.cfg.Mirrors)
	if e.cfg.DataDir == "" {
		st := &diskStore{codec: codec, pages: make(map[rtree.PageID][]byte, len(nodes))}
		for _, nd := range nodes {
			img, err := codec.Encode(nd)
			if err != nil {
				return nil, fmt.Errorf("exec: page %d: %w", nd.ID, err)
			}
			st.pages[nd.ID] = img
		}
		for m := range base {
			base[m] = st
		}
		return base, nil
	}
	stores := make([]*pagestore.FileStore, e.cfg.Mirrors)
	for m := range stores {
		path := filepath.Join(e.cfg.DataDir, ReplicaFileName(d, m))
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("exec: replica %d/%d: %w", d, m, err)
		}
		fs, err := pagestore.OpenFileStore(path, codec, pagestore.FileStoreOptions{Counters: &e.storage})
		if err != nil {
			return nil, fmt.Errorf("exec: replica %d/%d store: %w", d, m, err)
		}
		e.files = append(e.files, fs)
		stores[m] = fs
		base[m] = fs
	}
	for _, nd := range nodes {
		img, err := codec.EncodeInto(buf, nd)
		if err != nil {
			return nil, fmt.Errorf("exec: page %d: %w", nd.ID, err)
		}
		for m, fs := range stores {
			if err := fs.WriteImage(nd.ID, img); err != nil {
				return nil, fmt.Errorf("exec: replica %d/%d page %d: %w", d, m, nd.ID, err)
			}
		}
	}
	for m, fs := range stores {
		if err := fs.Sync(); err != nil {
			return nil, fmt.Errorf("exec: replica %d/%d sync: %w", d, m, err)
		}
	}
	return base, nil
}

// closeFiles closes the file-backed replica stores (DataDir mode),
// joining their close errors.
func (e *Engine) closeFiles() error {
	var err error
	for _, fs := range e.files {
		err = errors.Join(err, fs.Close())
	}
	e.files = nil
	return err
}

// NumWorkers returns the total number of disk worker goroutines.
func (e *Engine) NumWorkers() int { return e.tree.NumDisks() * e.cfg.WorkersPerDisk }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return obs.Load[Stats](&e.stats) }

// QueueDepths reports each logical disk's current read backlog: jobs
// sitting in (or blocked entering) the disk's queue plus jobs a worker
// is serving right now. Only a framed engine's leaves become jobs, so a
// resident engine reports zero however busy it is — the depth measures
// the disks, as in the paper's model. The network query service's
// admission control sheds load when any disk's depth crosses its
// watermark — queue depth is the earliest saturation signal the array
// gives (the paper's queueing collapse shows up here before it shows up
// in latency).
func (e *Engine) QueueDepths() []int64 {
	out := make([]int64, len(e.gauges))
	for d := range e.gauges {
		g := &e.gauges[d]
		out[d] = g.Queued.Load() + g.InFlight.Load()
	}
	return out
}

// ReplicaHealth reports, per logical disk and mirror, whether the
// replica is currently degraded (true = skipped by reads).
func (e *Engine) ReplicaHealth() [][]bool {
	out := make([][]bool, len(e.replicas))
	for d, reps := range e.replicas {
		out[d] = make([]bool, len(reps))
		for m, r := range reps {
			out[d][m] = r.degraded.Load()
		}
	}
	return out
}

// ViewStats returns the counts of the frames decoded pages live in
// (zero on a resident engine).
func (e *Engine) ViewStats() rtree.ViewStats { return e.views.Stats() }

// worker serves one disk's fetch queue until Close drains it. A job
// whose context is already cancelled is abandoned without decoding its
// page: the context error is delivered and the job counts under the
// cancellation telemetry, not under PagesFetched. A job that fails
// after the read path exhausted every replica counts under the I/O
// error telemetry — the two classes never mix. The worker that served
// a coalesced flight's leader also resolves the flight, handing the
// same result to every request that joined it — before it delivers to
// the leader, whose hold on the view (retire.go) it takes as the read
// returns.
func (e *Engine) worker(d int) {
	defer e.workers.Done()
	for job := range e.queues[d] {
		e.gauges[d].Queued.Add(-1)
		res := e.serve(job.ctx, d, job.page, job.submitted)
		if job.flight != nil {
			e.resolveFlight(job.flight, job.page, res)
		}
		job.sc.deliver(job.idx, res)
		<-e.sem // release the in-flight slot
	}
}

// serve reads one leaf of disk d for a request submitted at submitted,
// on whichever goroutine serves it — the disk's worker, or the querying
// goroutine (serveInline) — and keeps the disk's gauges and the
// engine's counters. A successful read comes with the request's hold on
// the view.
func (e *Engine) serve(ctx context.Context, d int, page rtree.PageID, submitted time.Time) fetchResult {
	g := &e.gauges[d]
	res := fetchResult{done: true}
	if err := ctx.Err(); err != nil {
		res.err = err
		g.Cancelled.Add(1)
		e.stats.FetchesCancelled.Add(1)
		return res
	}
	g.InFlight.Add(1)
	res.node, res.err = e.readReplicated(ctx, d, page)
	g.InFlight.Add(-1)
	switch {
	case res.err == nil:
		res.node.Hold(1) // the request's
		e.stats.PagesFetched.Add(1)
		g.Served.Add(1)
		res.wall = time.Since(submitted)
		e.fetchLat.Observe(res.wall.Seconds())
	case isCancellation(res.err):
		g.Cancelled.Add(1)
		e.stats.FetchesCancelled.Add(1)
	default:
		g.Failed.Add(1)
		e.stats.FetchErrors.Add(1)
	}
	return res
}

// serveInline reads request r on the calling goroutine when that is
// cheaper than a disk worker: the engine's replica reads have proven
// fast (inlineMinReads, inlineReadMax) and no job waits in r's disk
// queue, so the read overtakes nobody. It reports whether it served r.
// The read takes no in-flight slot and no coalescing flight: a caller
// reads one page at a time, and a read this cheap costs less than
// waiting for another query's.
func (e *Engine) serveInline(ctx context.Context, r query.PageRequest) (fetchResult, bool) {
	n := e.readLat.Count()
	if n < inlineMinReads || e.readLat.Sum() > float64(n)*e.inlineMax.Seconds() ||
		e.gauges[r.Disk].Queued.Load() != 0 {
		return fetchResult{}, false
	}
	return e.serve(ctx, r.Disk, r.Page, time.Now()), true
}

// isCancellation classifies context noise apart from real I/O errors.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// readReplicated is the degraded-mode read path: it resolves one page
// from a logical disk's replica set, preferring a page-deterministic
// primary, retrying transient failures per replica, redirecting to the
// next live mirror when a replica fails or is degraded, and optionally
// hedging the primary read. When no replica can serve the page it
// returns *fault.ErrDataUnavailable — never a wrong or partial node.
func (e *Engine) readReplicated(ctx context.Context, d int, id rtree.PageID) (*rtree.FlatNode, error) {
	reps := e.replicas[d]
	// The primary is a pure function of the page so mirrored load
	// spreads without per-query state and results stay deterministic.
	start := int(uint32(id)) % len(reps)
	primary := reps[start]
	var lastErr error
	tried := 0 // 1 once the primary has been read and failed
	if !primary.degraded.Load() && (len(reps) == 1 || !e.cfg.HedgeReads) {
		// The healthy, unhedged read — every read of a RAID-0 array —
		// needs no fallback order.
		n, err := e.readReplica(ctx, primary, id)
		if err == nil {
			return n, nil
		}
		if isCancellation(err) {
			return nil, err
		}
		lastErr, tried = err, 1
	}
	order := make([]*replica, 0, len(reps))
	for i := tried; i < len(reps); i++ {
		if r := reps[(start+i)%len(reps)]; !r.degraded.Load() {
			order = append(order, r)
		}
	}
	if len(order) == 0 {
		return nil, &fault.ErrDataUnavailable{Disk: d, Page: id, Last: lastErr}
	}
	if tried == 0 && order[0] != primary {
		// The primary itself is degraded: this fetch is redirected
		// before it even starts.
		e.faults.Redirects.Add(1)
	}
	if e.cfg.HedgeReads && len(order) > 1 {
		return e.readHedged(ctx, d, order, id)
	}
	for i, rep := range order {
		if tried+i > 0 {
			e.faults.Redirects.Add(1)
		}
		n, err := e.readReplica(ctx, rep, id)
		if err == nil {
			return n, nil
		}
		if isCancellation(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, &fault.ErrDataUnavailable{Disk: d, Page: id, Last: lastErr}
}

// repRead is one replica read's outcome, tagged with its source for
// hedge-win attribution.
type repRead struct {
	node *rtree.FlatNode
	err  error
	rep  *replica
}

// hedgeTimersLive audits the hedge timer lifecycle: +1 when readHedged
// starts its delay timer, -1 when the timer is resolved (stopped or
// fired). Every return path must resolve its timer — the race is
// decided in one select, so resolution happens exactly there, before
// the (potentially long: retries, backoff, mirror walk) fallback
// paths run. A sustained-load regression test asserts this stays 0 at
// rest; a leaked timer would pin its heap entry for the full hedge
// delay per read and accumulate under load.
var hedgeTimersLive atomic.Int64

// readHedged races the primary replica against a mirror: the mirror
// read fires only if the primary has not answered within the hedge
// delay, and the first successful answer wins. Failures fall back to
// the remaining live mirrors sequentially. The hedge timer is resolved
// (stopped or fired) in the race select itself — never carried into
// the fallback walk, whose retry backoffs can outlive the delay.
func (e *Engine) readHedged(ctx context.Context, d int, order []*replica, id rtree.PageID) (*rtree.FlatNode, error) {
	primary, backup := order[0], order[1]
	out := make(chan repRead, 2) // buffered: a loser never blocks or leaks
	go func() {
		n, err := e.readReplica(ctx, primary, id)
		out <- repRead{node: n, err: err, rep: primary}
	}()
	timer := time.NewTimer(e.hedgeDelay())
	hedgeTimersLive.Add(1)
	inFlight := 1
	var first repRead
	select {
	case first = <-out:
		timer.Stop()
		hedgeTimersLive.Add(-1)
		inFlight--
	case <-timer.C:
		hedgeTimersLive.Add(-1) // fired: nothing left to stop
		e.faults.Hedges.Add(1)
		inFlight++
		go func() {
			n, err := e.readReplica(ctx, backup, id)
			out <- repRead{node: n, err: err, rep: backup}
		}()
		first = <-out
		inFlight--
	case <-ctx.Done():
		timer.Stop()
		hedgeTimersLive.Add(-1)
		return nil, ctx.Err()
	}
	if first.err == nil {
		if first.rep == backup {
			e.faults.HedgeWins.Add(1)
		}
		return first.node, nil
	}
	if isCancellation(first.err) {
		return nil, first.err
	}
	lastErr := first.err
	tried := map[*replica]bool{first.rep: true}
	// Wait out the other racer, if any, before walking the rest.
	for ; inFlight > 0; inFlight-- {
		second := <-out
		tried[second.rep] = true
		if second.err == nil {
			if second.rep == backup {
				e.faults.HedgeWins.Add(1)
			}
			return second.node, nil
		}
		if isCancellation(second.err) {
			return nil, second.err
		}
		lastErr = second.err
	}
	for _, rep := range order {
		if tried[rep] {
			continue
		}
		e.faults.Redirects.Add(1)
		n, err := e.readReplica(ctx, rep, id)
		if err == nil {
			return n, nil
		}
		if isCancellation(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, &fault.ErrDataUnavailable{Disk: d, Page: id, Last: lastErr}
}

// hedgeMinSamples is how many replica-read observations the latency
// histogram needs before its p99 is trusted over hedgeDelayFloor;
// hedgeRefreshEvery is how many further observations a cached p99
// stays valid for before it is recomputed.
const (
	hedgeMinSamples   = 64
	hedgeRefreshEvery = 256
)

// hedgeDelay derives the hedge trigger from the replica-read latency
// p99, floored by Engine.hedgeFloor while the histogram is too
// thin to trust. The p99 is cached and refreshed every
// hedgeRefreshEvery observations: snapshotting the full histogram
// (25-bucket copy plus quantile walk) on every hedged read made the
// hot read path pay for its own telemetry. A lost CAS race simply
// serves the previous cached value — the delay is a heuristic trigger
// and never affects results.
func (e *Engine) hedgeDelay() time.Duration {
	delay := e.hedgeFloor
	c := e.readLat.Count()
	if c < hedgeMinSamples {
		return delay
	}
	if at := e.hedgeRefreshAt.Load(); c >= at && e.hedgeRefreshAt.CompareAndSwap(at, c+hedgeRefreshEvery) {
		s := e.readLat.Snapshot()
		e.hedgeP99Nanos.Store(int64(s.P99() * float64(time.Second)))
	}
	if p := time.Duration(e.hedgeP99Nanos.Load()); p > delay {
		delay = p
	}
	return delay
}

// readReplica performs one replica's read with bounded retries and
// capped exponential backoff. A success resets the replica's
// consecutive-failure count; crossing Engine.degradeAfter (or a
// fail-stop error) marks the replica degraded and returns immediately
// so the caller redirects to a mirror. A decoded page whose id differs
// from the requested page — a misdirected read the reader underneath
// failed to catch — is converted to a typed integrity failure here and
// treated exactly like any other failed I/O, so a lying replica can
// never leak a wrong node into a query.
func (e *Engine) readReplica(ctx context.Context, rep *replica, id rtree.PageID) (*rtree.FlatNode, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		begin := time.Now()
		n, err := rep.reader.ReadPage(id)
		if err == nil && n.ID != id {
			err = &pagestore.IntegrityError{Want: id, Got: n.ID}
		}
		if err == nil {
			rep.consecFails.Store(0)
			e.stats.Decodes.Add(1)
			e.readLat.Observe(time.Since(begin).Seconds())
			return n, nil
		}
		var ie *pagestore.IntegrityError
		if errors.As(err, &ie) {
			e.faults.IntegrityFailures.Add(1)
		}
		dead := errors.Is(err, fault.ErrDiskDead)
		if fails := rep.consecFails.Add(1); dead || fails >= e.degradeAfter {
			e.degrade(rep)
			return nil, err
		}
		if attempt >= e.retryLimit {
			return nil, err
		}
		e.faults.Retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, retryMaxBackoff)
	}
}

// degrade marks a replica dead-to-reads exactly once.
func (e *Engine) degrade(rep *replica) {
	if rep.degraded.CompareAndSwap(false, true) {
		e.faults.DisksDegraded.Add(1)
	}
}

// batchError picks the stage's error with I/O errors first: a real
// read failure (no live replica, data unavailable) must surface even
// when the failure also cancelled the query context and flooded the
// remaining fetches with cancellation noise. submitErr (from the
// stage's liveness check or its fan-out loop) outranks collected
// cancellations for the same reason — it may be ErrClosed, which
// callers must see over a context error. ioErr and cancelErr are the
// first of their class among the stage's slots in request order (not
// in order of arrival: the stage looks at its slots once, after the
// last delivery).
func batchError(ioErr, submitErr, cancelErr error) error {
	if ioErr != nil {
		return ioErr
	}
	if submitErr != nil {
		return submitErr
	}
	return cancelErr
}

// submitOne resolves one leaf request of a framed engine: it reads the
// page itself when serveInline finds that cheaper, and otherwise
// acquires an in-flight slot and enqueues a job on the page's disk,
// whose worker delivers the result to slot idx of sc. With
// request-level coalescing enabled a queued request first tries to join
// an in-flight fetch of the same page — a join consumes no semaphore
// slot and no queue slot, and the shared result is delivered like any
// other. When this call starts a new flight, later requests may join it
// until the worker that serves the job resolves it; if the job cannot
// be enqueued (cancelled context or closed engine), every waiter that
// joined meanwhile is aborted with the submission error so none is left
// hanging. The in-flight slot and
// the queue slot are taken without blocking when they are free — the
// common case — and only a full semaphore or a full queue pays for a
// select on the query context and the close signal. With a nil error,
// served reports that the result is already in slot idx of sc; otherwise
// exactly one delivery to that slot is owed, which the caller must wait
// for (stageScratch.wait).
func (e *Engine) submitOne(ctx context.Context, r query.PageRequest, sc *stageScratch, idx int, semWait *time.Duration) (served bool, err error) {
	if res, ok := e.serveInline(ctx, r); ok {
		sc.results[idx] = res
		return true, nil
	}
	var flight *coShard // set when this request leads a new flight
	if e.co != nil {
		sh, joined := e.co.join(r.Page, sc, idx)
		if joined {
			e.stats.FetchesCoalesced.Add(1)
			return false, nil
		}
		flight = sh
	}
	now := time.Now()
	select {
	case e.sem <- struct{}{}:
	default:
		select {
		case e.sem <- struct{}{}:
			acquired := time.Now()
			*semWait += acquired.Sub(now)
			now = acquired
		case <-ctx.Done():
			err = ctx.Err()
		case <-e.closed:
			err = ErrClosed
		}
	}
	if err == nil {
		g := &e.gauges[r.Disk]
		g.Queued.Add(1)
		job := fetchJob{page: r.Page, idx: idx, ctx: ctx, sc: sc, submitted: now, flight: flight}
		select {
		case e.queues[r.Disk] <- job:
			return false, nil
		default:
		}
		select {
		case e.queues[r.Disk] <- job:
			return false, nil
		case <-ctx.Done():
			err = ctx.Err()
		case <-e.closed:
			err = ErrClosed
		}
		g.Queued.Add(-1)
		<-e.sem
	}
	if flight != nil {
		e.abortFlight(flight, r.Page, err)
	}
	return false, err
}

// stageScratch is one query's per-stage fetch state, reused from stage
// to stage and, through Engine.scratch, from query to query. That is
// safe because executions may not retain the delivered slice
// (query.Driver reuses its own the same way) and every stage waits for
// all the deliveries it is owed before it returns, failed or not, so the
// next stage — or the next query — finds the countdown at zero and the
// token channel empty.
//
// A stage completes once, not once per page: whoever serves a request
// (a disk worker, or the resolver of a coalesced flight) writes the
// result into the request's slot and counts pending down by one; the
// stage, once it has submitted everything, counts it up by the number
// of deliveries it is owed. Whoever of them brings it to zero made the
// last move: if that is a delivery it sends the one token the stage
// waits for, if it is the stage itself everything was delivered already
// and there is no token at all. One countdown therefore has at most one
// sender, and the token it sends is always received.
type stageScratch struct {
	results []fetchResult
	nodes   []*rtree.FlatNode
	pending atomic.Int32  // deliveries owed (negative while deliveries run ahead of the stage's count)
	done    chan struct{} // capacity 1: the completion token
}

func newStageScratch() *stageScratch {
	return &stageScratch{done: make(chan struct{}, 1)}
}

// reset sizes the scratch for a stage of n requests and returns the
// zeroed result slots.
func (sc *stageScratch) reset(n int) []fetchResult {
	if cap(sc.results) < n {
		sc.results = make([]fetchResult, n)
		sc.nodes = make([]*rtree.FlatNode, n)
	}
	sc.results, sc.nodes = sc.results[:n], sc.nodes[:n]
	clear(sc.results)
	return sc.results
}

// unpin drops the node references of the query that used the scratch,
// so a pooled scratch keeps no decoded page alive. The holds behind
// them are the engine's to drop first (releaseStage).
func (sc *stageScratch) unpin() {
	clear(sc.results[:cap(sc.results)])
	clear(sc.nodes[:cap(sc.nodes)])
}

// wait blocks until the owed deliveries — one per submitOne that
// returned nil since the last wait — have all been made.
func (sc *stageScratch) wait(owed int) {
	if owed != 0 && sc.pending.Add(int32(owed)) != 0 {
		<-sc.done
	}
}

// deliver completes slot idx. The slot is written before the count
// moves, so the stage reads it after wait without further
// synchronization.
func (sc *stageScratch) deliver(idx int, res fetchResult) {
	sc.results[idx] = res
	if sc.pending.Add(-1) == 0 {
		sc.done <- struct{}{}
	}
}

// liveErr is the inline path's once-per-stage liveness check: a stage
// served entirely inline passes no select on the query context or the
// engine's close signal, and must still fail a cancelled query
// or a closed engine with the error a submission would have returned.
func (e *Engine) liveErr(ctx context.Context) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
		return ctx.Err()
	}
}

// fetchBatch resolves one stage with scratch of its own — a test seam
// for the stage machinery. The scratch is dropped with its holds, so the
// delivered views stay the caller's and go to the collector. KNN reuses
// one scratch for all the stages of a query (fetchStage).
func (e *Engine) fetchBatch(ctx context.Context, stage int, reqs []query.PageRequest, obsv obs.QueryObserver) ([]*rtree.FlatNode, error) {
	return e.fetchStage(ctx, newStageScratch(), stage, reqs, obsv)
}

// foreignCancellation reports whether a slot holds a cancellation that
// reached it through another query's flight while this query is live.
func foreignCancellation(ctx context.Context, res *fetchResult) bool {
	return res.coalesced && res.err != nil && isCancellation(res.err) && ctx.Err() == nil
}

// fetchStage resolves one stage's requests on the calling goroutine
// where it can. A Cached request (a pinned level: the directory, see
// KNN) is served from the live node's view — no in-flight slot, no
// coalescer, no queue hop, no decode — and counts as a visit, not a
// fetch. A resident engine serves every leaf the same way, but counts
// it as a fetch its disk served, so its counters, gauges and traces read
// as they would had a worker answered. A framed engine reads a leaf
// itself while that is cheaper than a worker (submitOne, serveInline)
// and fans the others out to the per-disk queues (respecting the
// in-flight bound); their results are written into the stage's slots by
// whoever serves them, and the stage waits once, for the last one
// (stageScratch). It then reads
// the slots in request order: a slot that joined another query's flight
// and got that query's cancellation is refetched under a fresh countdown
// while this query is live — another query's cancellation must never
// fail an innocent bystander — and the stage's error is picked by
// batchError from the first I/O error and the first cancellation in
// request order.
// Nodes are delivered in request order — executions depend on that for
// deterministic tie-breaking, which is what makes engine results
// identical to the sequential Driver's. With an observer attached the
// stage emits SemWait (every in-flight-slot wait of the stage, refetches
// included), per-fetch FetchDone (request order, wall-clock latency and
// whether a decode served it, completed fetches only) and StageDone events on
// every exit path, success or failure, so traces stay well-formed under
// cancellation and injected faults. The returned slice belongs to sc and
// is overwritten by the next stage, which is also when the views this
// one delivered stop being held (releaseStage): an execution reads them
// only during the Step in between.
func (e *Engine) fetchStage(ctx context.Context, sc *stageScratch, stage int, reqs []query.PageRequest, obsv obs.QueryObserver) ([]*rtree.FlatNode, error) {
	start := time.Now()
	e.releaseStage(sc)
	results := sc.reset(len(reqs))
	submitErr := e.liveErr(ctx)
	hits := uint64(0) // leaves served inline
	var semWait time.Duration
	mark := start // when the previous request was dealt with: an inline leaf's latency runs from here
	owed := 0     // deliveries to wait for
	for i := 0; i < len(reqs) && submitErr == nil; i++ {
		r := reqs[i]
		if r.Cached {
			results[i] = fetchResult{node: e.tree.Store().Get(r.Page).Flat(), done: true}
			continue
		}
		if e.resident {
			n := e.tree.Store().Get(r.Page).Flat()
			now := time.Now()
			results[i] = fetchResult{node: n, wall: now.Sub(mark), hit: true, done: true}
			mark = now
			hits++
			e.gauges[r.Disk].Served.Add(1)
			e.fetchLat.Observe(results[i].wall.Seconds())
			continue
		}
		served, err := e.submitOne(ctx, r, sc, i, &semWait)
		if submitErr = err; err == nil {
			if !served {
				owed++
			}
			mark = time.Now()
		}
	}
	e.stats.PagesFetched.Add(hits)
	// Wait for every owed delivery even after an error: workers own sem
	// slots until delivery, the countdown must be back at zero before the
	// next stage, and the first I/O error must not be masked by cancellation
	// noise from sibling fetches.
	sc.wait(owed)
	for refetch := true; refetch; {
		refetch, owed = false, 0
		for i := range results {
			if !foreignCancellation(ctx, &results[i]) {
				continue
			}
			refetch = true
			results[i] = fetchResult{}
			if served, err := e.submitOne(ctx, reqs[i], sc, i, &semWait); err != nil {
				results[i] = fetchResult{err: err} // engine closed (or we just got cancelled)
			} else if !served {
				owed++
			}
		}
		sc.wait(owed)
	}
	e.semWait.Observe(semWait.Seconds())
	var ioErr, cancelErr error
	for i := range results {
		switch err := results[i].err; {
		case err == nil:
		case isCancellation(err):
			if cancelErr == nil {
				cancelErr = err
			}
		default:
			if ioErr == nil {
				ioErr = err
			}
		}
	}
	err := batchError(ioErr, submitErr, cancelErr)
	wall := time.Since(start)
	if err == nil {
		e.stageLat.Observe(wall.Seconds())
	}
	if obsv != nil {
		obsv.Observe(obs.Event{Type: obs.SemWait, Stage: stage, Batch: len(reqs), Wall: semWait})
		for i, r := range reqs {
			if !results[i].done || results[i].err != nil {
				continue
			}
			obsv.Observe(obs.Event{
				Type: obs.FetchDone, Stage: stage,
				Page: int64(r.Page), Disk: r.Disk, Pages: r.Pages, Cached: r.Cached,
				CacheHit: results[i].hit, Wall: results[i].wall,
			})
		}
		obsv.Observe(obs.Event{Type: obs.StageDone, Stage: stage, Batch: len(reqs), Wall: wall})
	}
	if err != nil {
		return nil, err
	}
	for i := range results {
		sc.nodes[i] = results[i].node
	}
	return sc.nodes, nil
}

// KNN answers one k-nearest-neighbor query. It is safe to call from many
// goroutines concurrently. The directory is pinned: opts.CachedLevels is
// raised to at least the tree's height − 1, so the query's Stats charge
// only leaf reads, as query.Driver's do at that setting — a resident
// engine's leaves included, which are served from memory but charged
// as reads. Pinned pages and a resident engine's leaves are served on
// the calling goroutine; a framed engine's leaves are read on the
// per-disk workers or, while reads are cheap, on the calling goroutine,
// and the query's last stage lets go of its frames
// before KNN returns. The context cancels the query between (and during)
// fetch stages.
func (e *Engine) KNN(ctx context.Context, alg query.Algorithm, q geom.Point, k int, opts query.Options) ([]query.Neighbor, *query.Stats, error) {
	if err := query.ValidateKNN(e.tree, q, k); err != nil {
		return nil, nil, err
	}
	if err := e.begin(); err != nil {
		return nil, nil, err
	}
	defer e.running.Done()
	opts.CachedLevels = max(opts.CachedLevels, e.tree.Height()-1)

	start := time.Now()
	stage := 0
	// A panic below drops the scratch instead of pooling it: its
	// countdown may still be owed deliveries (and its holds are never
	// dropped: those views go to the collector).
	sc := e.scratch.Get().(*stageScratch)
	ex := alg.NewExecution(e.tree, q, k, opts)
	defer ex.Release()
	err := query.RunWith(ex, alg.Name(), func(reqs []query.PageRequest) ([]*rtree.FlatNode, error) {
		nodes, err := e.fetchStage(ctx, sc, stage, reqs, opts.Observer)
		stage++
		return nodes, err
	})
	e.releaseStage(sc)
	sc.unpin()
	e.scratch.Put(sc)
	if err != nil {
		e.stats.Cancelled.Add(1)
		return nil, nil, err
	}
	e.stats.Queries.Add(1)
	e.queryLat.Observe(time.Since(start).Seconds())
	return ex.Results(), ex.Stats(), nil
}

// Close rejects new queries, aborts queries blocked on admission,
// waits for running queries to unwind, and stops the workers, then
// closes any file-backed replica stores and returns their joined close
// errors. It is idempotent and safe to call concurrently with KNN.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.isClosed {
		e.mu.Unlock()
		return nil
	}
	e.isClosed = true
	close(e.closed)
	e.mu.Unlock()

	e.running.Wait()
	for _, q := range e.queues {
		close(q)
	}
	e.workers.Wait()
	return e.closeFiles()
}
