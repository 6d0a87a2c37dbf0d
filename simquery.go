// Package simquery reproduces "Similarity Query Processing Using Disk
// Arrays" (Papadopoulos & Manolopoulos, SIGMOD 1998) as a Go library: a
// parallel R*-tree declustered over a simulated RAID-0 disk array, the
// four k-nearest-neighbor algorithms of the paper (BBSS, FPSS, CRSS and
// the hypothetical weak-optimal WOPTSS), and an event-driven system
// simulator measuring multi-user response times.
//
// Quick start:
//
//	ix, err := simquery.NewIndex(simquery.IndexConfig{Dim: 2, NumDisks: 10})
//	if err != nil { ... }
//	for i, p := range points {
//		_ = ix.Insert(p, simquery.ObjectID(i))
//	}
//	neighbors, stats, err := ix.KNN(queryPoint, 10, "crss")
//
// See the examples directory for runnable programs and package
// internal/harness for the code that regenerates every figure and table
// of the paper's evaluation.
package simquery

import (
	"repro/internal/core"
)

// Re-exported API. See package repro/internal/core for documentation.
type (
	// Point is an n-dimensional query or data point.
	Point = core.Point
	// ObjectID identifies an indexed object.
	ObjectID = core.ObjectID
	// Neighbor is one k-NN answer: an object, its point and its squared
	// distance.
	Neighbor = core.Neighbor
	// QueryStats counts node accesses, parallel batches and CPU work.
	QueryStats = core.QueryStats
	// Index is a similarity-search index over a simulated disk array.
	Index = core.Index
	// IndexConfig configures an Index.
	IndexConfig = core.IndexConfig
	// SimulatedWorkload describes a timed multi-user experiment.
	SimulatedWorkload = core.SimulatedWorkload
	// RunResult aggregates a simulated workload run.
	RunResult = core.RunResult
	// QueryOutcome is the timing record of one simulated query.
	QueryOutcome = core.QueryOutcome
	// Engine is the real concurrent k-NN execution engine: one worker
	// goroutine per simulated disk, many client goroutines. Open one
	// with Index.NewEngine.
	Engine = core.Engine
	// EngineConfig tunes the concurrent engine.
	EngineConfig = core.EngineConfig
	// EngineStats are the engine's cumulative counters.
	EngineStats = core.EngineStats
	// EngineSnapshot is a diffable observability snapshot of the
	// engine: counters, per-disk gauges with the declustering balance
	// ratio, and latency histograms — see Engine.Snapshot.
	EngineSnapshot = core.EngineSnapshot
	// InvalidQueryError reports a malformed k-NN query (k <= 0, nil
	// point, dimensionality mismatch), rejected identically by every
	// execution path.
	InvalidQueryError = core.InvalidQueryError
	// FaultInjector deterministically injects drive failures and
	// latency spikes into the engine's replica reads — see
	// EngineConfig.Fault.
	FaultInjector = core.FaultInjector
	// DriveFaults is one drive's fault program for a FaultInjector.
	DriveFaults = core.DriveFaults
	// ErrDataUnavailable is the typed degraded-mode error: a page had
	// no live replica, so the query failed rather than answer wrongly.
	ErrDataUnavailable = core.ErrDataUnavailable
)

// NewIndex creates an empty disk-array similarity index.
func NewIndex(cfg IndexConfig) (*Index, error) { return core.NewIndex(cfg) }

// Algorithms lists the built-in k-NN algorithm names: bbss, fpss, crss,
// woptss and the eps-series baseline.
func Algorithms() []string { return core.Algorithms() }

// NewFaultInjector creates a deterministic fault injector for
// EngineConfig.Fault; drives are keyed disk*Mirrors+mirror.
func NewFaultInjector(seed int64) *FaultInjector { return core.NewFaultInjector(seed) }
