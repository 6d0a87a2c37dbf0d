// Package obs is the low-overhead observability layer shared by the
// three query drivers — the immediate query.Driver, the event-driven
// system simulator (package simarray) and the real concurrent engine
// (package exec). It provides three things:
//
//   - lock-free primitives: atomic counters and gauges, and a
//     fixed-bucket latency histogram whose p50/p95/p99 snapshot math
//     follows internal/metrics.Percentile (rank = p/100·(N−1) with
//     linear interpolation, here applied inside the matched bucket);
//   - a unified trace-event schema (Event / QueryObserver): the same
//     query emits the same causal event sequence under all three
//     drivers, so a query can be profiled identically in a unit test,
//     on the virtual clock and on real hardware — only the timing
//     fields (Wall vs. SimTime) differ per driver;
//   - an optional debug HTTP server exporting expvar (/debug/vars)
//     and net/http/pprof, wired into cmd/simquery and the multiuser
//     example.
//
// Everything here is safe for concurrent use and costs nothing when
// unused: a nil QueryObserver is never invoked, and the histogram and
// gauge hot paths are single atomic operations.
package obs

import (
	"fmt"
	"time"
)

// EventType classifies trace events. The first five types form the
// driver-independent core schema: for one query every driver emits the
// identical sequence of core events (QueryStart, then per stage
// StageIssue, FetchIssue×B, FetchDone×B, StageDone, and finally
// QueryEnd), differing only in the timing fields. The remaining types
// are driver-specific extras.
type EventType uint8

const (
	// QueryStart opens a query's event stream (emitted by the
	// algorithm on its first stage).
	QueryStart EventType = iota + 1
	// StageIssue announces one algorithm stage: Batch page requests
	// are about to be fetched in parallel.
	StageIssue
	// FetchIssue describes one page request of the stage, in request
	// order (Page, Disk, Pages, Cached).
	FetchIssue
	// FetchDone reports one page request resolved, in request order.
	// The engine stamps Wall (and CacheHit); the simulator stamps
	// SimTime; the immediate driver stamps neither.
	FetchDone
	// StageDone closes a stage after its whole batch arrived.
	StageDone
	// QueryEnd closes the query's event stream.
	QueryEnd
	// SemWait is an engine-only extra: time a stage spent blocked
	// acquiring an in-flight fetch slot for one request.
	SemWait
)

// String names the event type for logs and test failures.
func (t EventType) String() string {
	switch t {
	case QueryStart:
		return "query-start"
	case StageIssue:
		return "stage-issue"
	case FetchIssue:
		return "fetch-issue"
	case FetchDone:
		return "fetch-done"
	case StageDone:
		return "stage-done"
	case QueryEnd:
		return "query-end"
	case SemWait:
		return "sem-wait"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one trace record. Which fields are meaningful depends on
// Type; unused fields are zero.
type Event struct {
	Type  EventType
	Stage int   // 0-based stage (fetch round) index
	Page  int64 // page id (FetchIssue / FetchDone)
	Disk  int   // disk holding the page
	Pages int   // sequential disk pages the node occupies
	// Cached marks a request served without disk I/O: its page is on a
	// pinned level (query.Options.CachedLevels).
	Cached bool
	// Batch is the stage's request count (StageIssue / StageDone).
	Batch int
	// CacheHit marks a FetchDone the engine served without a decode: a
	// leaf a resident engine served from the live tree, or one delivered
	// through another query's coalesced fetch (engine only).
	CacheHit bool
	// Wall is real elapsed time (engine and immediate driver).
	Wall time.Duration
	// SimTime is the simulator's virtual clock in seconds at the event.
	SimTime float64
}

// Core reports whether the event belongs to the driver-independent
// schema (true for everything but driver-specific extras like SemWait).
func (e Event) Core() bool { return e.Type != SemWait }

// Schema strips the driver-dependent fields (timing and engine cache
// attribution), leaving exactly the part of the event that must be
// identical across the three drivers. Cross-driver tests compare
// Schema() sequences.
func (e Event) Schema() Event {
	e.Wall = 0
	e.SimTime = 0
	e.CacheHit = false
	return e
}

// QueryObserver receives trace events. Implementations must be safe
// for concurrent use if shared between queries; events of a single
// query arrive from one goroutine in causal order.
type QueryObserver interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the QueryObserver interface.
type ObserverFunc func(Event)

// Observe implements QueryObserver.
func (f ObserverFunc) Observe(e Event) { f(e) }
