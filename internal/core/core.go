// Package core is the high-level face of the reproduction: a similarity
// search index over a simulated disk array, combining the parallel
// R*-tree, the declustering policies, the four k-NN algorithms of the
// paper (BBSS, FPSS, CRSS, WOPTSS) and the event-driven system
// simulator. The module root package re-exports these types for
// downstream users; the experiment harness and the command-line tools
// build on the same API.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/simarray"
)

// Re-exported fundamental types.
type (
	// Point is an n-dimensional query or data point.
	Point = geom.Point
	// Rect is an axis-aligned minimum bounding rectangle.
	Rect = geom.Rect
	// ObjectID identifies an indexed object.
	ObjectID = rtree.ObjectID
	// Neighbor is one k-NN answer.
	Neighbor = query.Neighbor
	// QueryStats counts node accesses, parallel batches and CPU work.
	QueryStats = query.Stats
	// RunResult aggregates a simulated multi-user workload run.
	RunResult = simarray.RunResult
	// QueryOutcome is the timing record of one simulated query.
	QueryOutcome = simarray.QueryOutcome
	// InvalidQueryError reports a malformed k-NN query, rejected
	// identically by every execution path.
	InvalidQueryError = query.InvalidQueryError
	// FaultInjector deterministically injects drive failures and
	// latency spikes into the concurrent engine's replica reads.
	FaultInjector = fault.Injector
	// DriveFaults is one drive's fault program for a FaultInjector.
	DriveFaults = fault.Faults
	// ErrDataUnavailable is the typed degraded-mode error: a page had
	// no live replica, so the query failed rather than answer wrongly.
	ErrDataUnavailable = fault.ErrDataUnavailable
)

// NewFaultInjector creates a deterministic fault injector for
// EngineConfig.Fault; drives are keyed disk*Mirrors+mirror.
func NewFaultInjector(seed int64) *FaultInjector { return fault.NewInjector(seed) }

// IndexConfig configures a disk-array similarity index.
type IndexConfig struct {
	// Dim is the dimensionality of the indexed points. Required.
	Dim int
	// NumDisks is the width of the RAID-0 array. Required.
	NumDisks int
	// PageSize is the disk block / tree node size in bytes (default
	// 4096, the striping unit of the paper).
	PageSize int
	// Policy names the declustering heuristic: "proximity" (default,
	// the paper's choice), "roundrobin", "random", "databalance",
	// "areabalance" or "minoverlap".
	Policy string
	// Seed drives placement and simulation randomness (default 1).
	Seed int64
	// UseSpheres selects the SR-tree access-method variant: directory
	// entries additionally carry centroid bounding spheres (tighter
	// pruning in high dimensionality, smaller fanout).
	UseSpheres bool
	// DataDir, when non-empty, makes the index durable: tree pages live
	// in a disk-backed page store under this directory, with a
	// write-ahead log providing crash recovery. Mutations stage in
	// memory until Commit; a directory already holding a committed tree
	// is recovered instead of starting empty (Recovered reports the
	// restored object count), every page on the disk and cylinder it was
	// placed on. The geometry (Dim, PageSize, UseSpheres) and the array
	// (NumDisks, Policy, Seed) must match the directory's; a mismatch is
	// refused. Close releases the files.
	DataDir string
}

// Index is a similarity-search index distributed over a simulated disk
// array. Reads (KNN, RangeSearch, Simulate) may run concurrently;
// mutations (Insert, Delete) are exclusive — the index guards itself
// with a readers-writer lock.
type Index struct {
	cfg  IndexConfig
	mu   lockrank.RWMutex[lockrank.IndexMu]
	tree *parallel.Tree // guarded by mu (read lock for queries, write lock for mutations)

	// Durable backing (DataDir mode); nil for a memory index.
	store     *pagestore.DurableStore
	storage   obs.StorageCounters
	recovered int // objects restored from DataDir at open
}

// openDurable opens a durable index's store; tests replace it to fail
// the store's files.
var openDurable = pagestore.OpenDurable

// NewIndex creates an index: empty and volatile by default, or durable
// (and possibly recovered from a previous run) with IndexConfig.DataDir.
func NewIndex(cfg IndexConfig) (*Index, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.Policy == "" {
		cfg.Policy = "proximity"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	pol, err := decluster.ByName(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pcfg := parallel.Config{
		Dim:        cfg.Dim,
		NumDisks:   cfg.NumDisks,
		Cylinders:  disk.HPC2200A().Cylinders,
		PageSize:   cfg.PageSize,
		Policy:     pol,
		Seed:       cfg.Seed,
		UseSpheres: cfg.UseSpheres,
	}
	ix := &Index{cfg: cfg}
	if cfg.DataDir != "" {
		ds, err := openDurable(cfg.DataDir, pcfg.Codec(), pagestore.DurableOptions{Counters: &ix.storage})
		if err != nil {
			return nil, err
		}
		ix.store = ds
		if meta := ds.Meta(); meta.Root != 0 {
			// The directory holds a committed tree: restore it instead of
			// starting empty.
			ix.tree, err = parallel.Open(pcfg, ds)
			ix.recovered = meta.Size
		} else {
			pcfg.Store = ds
			ix.tree, err = parallel.New(pcfg)
		}
		if err != nil {
			return nil, errors.Join(err, ds.Close())
		}
		return ix, nil
	}
	ix.tree, err = parallel.New(pcfg)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// Recovered reports how many objects were restored from DataDir when
// the index was opened (0 for a fresh or memory-backed index).
func (ix *Index) Recovered() int { return ix.recovered }

// Commit makes every staged mutation durable: the dirty pages and the
// new tree root go through the write-ahead log with one sync, after
// which a crash recovers exactly this state. No-op for a memory index.
func (ix *Index) Commit() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store == nil {
		return nil
	}
	return ix.tree.Commit(ix.store)
}

// Checkpoint folds committed WAL state into the data file and truncates
// the log, bounding recovery time. No-op for a memory index.
func (ix *Index) Checkpoint() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store == nil {
		return nil
	}
	return ix.store.Checkpoint()
}

// StorageStats returns the durable store's cumulative I/O counters
// (all zero for a memory index).
func (ix *Index) StorageStats() obs.StorageSnapshot { return ix.storage.Snapshot() }

// Close releases the durable store's files without committing staged
// mutations (call Commit first to keep them). No-op for a memory index.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store == nil {
		return nil
	}
	err := ix.store.Close()
	ix.store = nil
	return err
}

// Insert adds a point object to the index.
func (ix *Index) Insert(p Point, id ObjectID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.tree.InsertPoint(p, id)
}

// InsertAll bulk-inserts points, assigning ObjectIDs from their indices
// offset by base.
func (ix *Index) InsertAll(pts []Point, base ObjectID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, p := range pts {
		if err := ix.tree.InsertPoint(p, base+ObjectID(i)); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a point object; it reports whether the object existed.
func (ix *Index) Delete(p Point, id ObjectID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.tree.DeletePoint(p, id)
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree.Len()
}

// Tree exposes the underlying parallel R*-tree for advanced use
// (experiments, statistics, custom executors). The returned tree is
// read under the caller's own discipline; the accessor itself takes
// the read lock only for the field load.
func (ix *Index) Tree() *parallel.Tree {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree
}

// AlgorithmByName resolves one of the paper's algorithms — "bbss",
// "fpss", "crss" (default recommendation), "woptss" — or the extensions
// "bfss" (best-first) and "eps-series" (growing range-query baseline).
// It delegates to the shared registry in internal/query.
func AlgorithmByName(name string) (query.Algorithm, error) {
	return query.AlgorithmByName(name)
}

// Algorithms lists the built-in algorithm names in presentation order.
func Algorithms() []string { return query.AlgorithmNames() }

// KNN answers a k-nearest-neighbor query with the named algorithm
// (empty string = CRSS, the paper's recommendation) and reports access
// statistics. Results are ordered by increasing distance.
func (ix *Index) KNN(q Point, k int, algorithm string) ([]Neighbor, *QueryStats, error) {
	alg, err := AlgorithmByName(algorithm)
	if err != nil {
		return nil, nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d := query.Driver{Tree: ix.tree}
	return d.RunChecked(alg, q, k, query.Options{})
}

// KNNTraced is KNN with a stage-by-stage trace callback (see
// query.Options.Trace); CRSS reports its ADAPTIVE/UPDATE/NORMAL/
// TERMINATE mode transitions.
func (ix *Index) KNNTraced(q Point, k int, algorithm string, trace func(string)) ([]Neighbor, *QueryStats, error) {
	alg, err := AlgorithmByName(algorithm)
	if err != nil {
		return nil, nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d := query.Driver{Tree: ix.tree}
	return d.RunChecked(alg, q, k, query.Options{Trace: trace})
}

// RangeSearch returns all objects within distance eps of q (the paper's
// Definition 1), with the number of nodes accessed.
func (ix *Index) RangeSearch(q Point, eps float64) ([]Neighbor, int, error) {
	if q.Dim() != ix.cfg.Dim {
		return nil, 0, fmt.Errorf("core: query dim %d, index dim %d", q.Dim(), ix.cfg.Dim)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	matches, nodes := ix.tree.SearchSphere(q, eps, nil)
	out := make([]Neighbor, len(matches))
	for i, m := range matches {
		out[i] = Neighbor{Object: m.Object, Rect: m.Rect, DistSq: geom.MinDistSq(q, m.Rect)}
	}
	return out, nodes, nil
}

// SimulatedWorkload describes a timed multi-user experiment.
type SimulatedWorkload struct {
	// Algorithm name; empty = CRSS.
	Algorithm string
	// K nearest neighbors per query.
	K int
	// Queries to execute, one arrival each.
	Queries []Point
	// ArrivalRate λ in queries/second (Poisson); 0 = single-user
	// (back-to-back queries).
	ArrivalRate float64
	// CachedLevels pins the top tree levels in memory (0 = paper model).
	CachedLevels int
}

// Simulate runs the workload through the event-driven disk-array
// simulator (HP C2200A drives, 100 MIPS CPU, shared bus) and returns
// per-query response times and device statistics.
func (ix *Index) Simulate(w SimulatedWorkload) (RunResult, error) {
	alg, err := AlgorithmByName(w.Algorithm)
	if err != nil {
		return RunResult{}, err
	}
	sys, err := simarray.NewSystem(ix.tree, simarray.Config{Seed: ix.cfg.Seed})
	if err != nil {
		return RunResult{}, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return sys.Run(simarray.Workload{
		Algorithm:   alg,
		K:           w.K,
		Queries:     w.Queries,
		ArrivalRate: w.ArrivalRate,
		Options:     query.Options{CachedLevels: w.CachedLevels},
	})
}

// EngineConfig tunes the real concurrent execution engine (see
// repro/internal/exec.Config).
type EngineConfig = exec.Config

// EngineStats are the engine's cumulative counters.
type EngineStats = exec.Stats

// EngineSnapshot is a diffable observability snapshot of the engine:
// counters, frame counts, per-disk gauges with the declustering
// balance ratio, and wall-clock latency histograms (p50/p95/p99).
type EngineSnapshot = exec.Snapshot

// Engine is a real concurrent k-NN execution engine over an Index: one
// worker goroutine per simulated disk serves page fetches, and many
// client goroutines may query it at once. It contrasts with Simulate,
// which models the same parallelism on a virtual clock — see the README
// section "Real vs. simulated parallelism".
//
// The engine snapshots the index's pages when it is created and
// queries answer as of that snapshot. With EngineConfig.DataDir the
// snapshot is the replica files under it — NewEngine replaces files of
// the same name, an engine still open on them keeps its own. When
// EngineConfig.CachePages covers the index's leaves the engine serves
// them from the tree in memory; otherwise every leaf is a read into one
// of a fixed set of recycled frames, and a file-backed engine's memory
// is the tree plus those frames. Do not mutate the index while an engine is open — structural
// changes (splits, frees) invalidate the snapshot; build a new engine
// after loading data. Each engine query holds the index's read lock, so
// an accidental concurrent mutation is a stale-snapshot error, not a
// data race. Everything but the named-algorithm KNN — Stats, Snapshot,
// PublishExpvar, Close, and the surface the network query service
// fronts — is the embedded exec.Engine's.
type Engine struct {
	*exec.Engine
	ix *Index
}

// NewEngine opens a concurrent execution engine over the index.
// Close it to release its worker goroutines.
func (ix *Index) NewEngine(cfg EngineConfig) (*Engine, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	eng, err := exec.New(ix.tree, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: eng, ix: ix}, nil
}

// KNN answers a k-nearest-neighbor query with the named algorithm
// (empty string = CRSS). It is safe to call from many goroutines; the
// context cancels the query mid-flight.
func (e *Engine) KNN(ctx context.Context, q Point, k int, algorithm string) ([]Neighbor, *QueryStats, error) {
	alg, err := AlgorithmByName(algorithm)
	if err != nil {
		return nil, nil, err
	}
	e.ix.mu.RLock()
	defer e.ix.mu.RUnlock()
	return e.Engine.KNN(ctx, alg, q, k, query.Options{})
}

// Check validates the index invariants (tree structure, entry counts,
// page placements). Intended for tests and tools.
func (ix *Index) Check() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := ix.tree.Tree.CheckInvariants(); err != nil {
		return err
	}
	return ix.tree.CheckPlacements()
}

// Distribution reports how the index's pages spread over the disks.
func (ix *Index) Distribution() parallel.DistributionStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree.Distribution()
}
