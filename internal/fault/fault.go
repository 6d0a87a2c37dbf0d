// Package fault is the deterministic fault-injection layer of the disk
// array: a seeded Injector decides, per physical drive and per I/O,
// whether a page read succeeds, fails transiently, fails permanently
// (fail-stop) or is served after an injected latency spike. The real
// execution engine (package exec) wraps each replica's page store with
// an injected Reader; the event-driven simulator (package simarray)
// consumes the same typed errors for its own fail-stop model.
//
// Determinism: every drive owns an independent random stream seeded
// from the injector seed and the drive index, so the fate sequence of a
// drive's I/Os depends only on (seed, drive, I/O ordinal) — never on
// how I/Os of different drives interleave. That is what lets a chaos
// test replay the exact same failure schedule a hundred times.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/lockrank"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// ErrTransient is the retryable injected error: the I/O failed but the
// drive is healthy and a retry may succeed.
var ErrTransient = errors.New("fault: injected transient I/O error")

// ErrDiskDead is the permanent injected error: the drive has
// fail-stopped and every future I/O against it fails too. Readers
// should redirect to a mirror instead of retrying.
var ErrDiskDead = errors.New("fault: drive fail-stopped")

// ErrDataUnavailable is returned when no live replica of a page
// remains: the read is not retryable and the query cannot produce a
// correct answer. It is the typed degraded-mode error shared by the
// concurrent engine and the simulator — callers match it with
// errors.As and must never substitute a partial result set for it.
type ErrDataUnavailable struct {
	Disk int          // logical disk holding the page
	Page rtree.PageID // the unreadable page
	Last error        // last underlying replica error, when known
}

// Error implements error.
func (e *ErrDataUnavailable) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("fault: page %d unavailable: logical disk %d has no live replica (last error: %v)",
			e.Page, e.Disk, e.Last)
	}
	return fmt.Sprintf("fault: page %d unavailable: logical disk %d has no live replica", e.Page, e.Disk)
}

// Unwrap exposes the last replica error to errors.Is/As chains.
func (e *ErrDataUnavailable) Unwrap() error { return e.Last }

// Faults is one drive's fault program. The zero value injects nothing.
type Faults struct {
	// Dead fail-stops the drive before it serves a single I/O.
	Dead bool
	// FailAfter, when positive, fail-stops the drive permanently after
	// it has been asked for that many I/Os (the FailAfter-th I/O is the
	// first to fail).
	FailAfter int
	// Transient is the per-I/O probability of a retryable error.
	Transient float64
	// SpikeProb is the per-I/O probability of an injected latency
	// spike of SpikeDelay (the I/O still succeeds, just late).
	SpikeProb  float64
	SpikeDelay time.Duration
	// MisdirectOn, when positive, misdirects the drive's MisdirectOn-th
	// I/O: the drive "succeeds" but serves a different page than the one
	// asked for (the previously requested page, or the next page id when
	// there is no history). The data that comes back is well-formed —
	// only the read path's identity check (decoded node id vs requested
	// id) can catch it, which is exactly what the misdirected-read
	// regression tests assert.
	MisdirectOn int
}

// driveState is one drive's mutable injection state.
type driveState struct {
	faults   Faults
	rng      *rand.Rand // per-drive stream: fate depends only on the drive's own I/O ordinal
	ios      uint64     // I/Os decided so far (including failed ones)
	dead     bool
	lastPage rtree.PageID // most recently requested page; misdirection target
	hasLast  bool
}

// Injector decides the fate of each I/O deterministically from its
// seed. Drives are identified by a caller-chosen integer (the engine
// uses disk*mirrors+mirror). Safe for concurrent use.
type Injector struct {
	seed int64

	mu     lockrank.Mutex[lockrank.Leaf]
	drives map[int]*driveState // guarded by mu
}

// NewInjector creates an injector with no programmed faults.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed, drives: make(map[int]*driveState)}
}

// drive returns (creating on first use) a drive's state. Callers hold mu.
func (in *Injector) drive(id int) *driveState {
	st, ok := in.drives[id]
	if !ok {
		st = &driveState{rng: rand.New(rand.NewSource(in.seed + int64(id)*104729 + 13))}
		in.drives[id] = st
	}
	return st
}

// Set programs a drive's fault behavior; it replaces any previous
// program but keeps the drive's I/O count and random stream.
func (in *Injector) Set(id int, f Faults) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.drive(id)
	st.faults = f
	if f.Dead {
		st.dead = true
	}
}

// IOs reports how many I/Os the injector has decided for a drive.
func (in *Injector) IOs(id int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drive(id).ios
}

// CheckRead decides the fate of a drive's next page read: an optional
// injected latency (to be paid before the read), the error, if any, and
// which page the drive actually serves. A nil error means the read
// succeeds after the returned delay. readPage equals page except on a
// misdirected I/O, where the drive successfully returns the wrong page
// — the caller must perform the read against readPage and let the read
// path's identity check discover the substitution.
func (in *Injector) CheckRead(id int, page rtree.PageID) (delay time.Duration, readPage rtree.PageID, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.drive(id)
	st.ios++
	if st.faults.FailAfter > 0 && st.ios >= uint64(st.faults.FailAfter) {
		st.dead = true
	}
	if st.dead {
		return 0, page, ErrDiskDead
	}
	// One draw per configured mode keeps each drive's fate sequence a
	// pure function of its I/O ordinal.
	if st.faults.SpikeProb > 0 && st.rng.Float64() < st.faults.SpikeProb {
		delay = st.faults.SpikeDelay
	}
	if st.faults.Transient > 0 && st.rng.Float64() < st.faults.Transient {
		return delay, page, ErrTransient
	}
	readPage = page
	if st.faults.MisdirectOn > 0 && st.ios == uint64(st.faults.MisdirectOn) {
		if st.hasLast && st.lastPage != page {
			readPage = st.lastPage
		} else {
			readPage = page + 1
		}
	}
	st.lastPage = page
	st.hasLast = true
	return delay, readPage, nil
}

// readerFunc adapts a function to pagestore.Reader.
type readerFunc func(id rtree.PageID) (*rtree.FlatNode, error)

func (f readerFunc) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) { return f(id) }

// Reader wraps a page reader with this injector's program for one
// drive: every ReadPage first pays the injected latency, then either
// fails with the injected error or delegates to the underlying reader —
// possibly against a different page, when the injector misdirects the
// I/O. The wrapper enforces the Reader contract on what comes back: a
// decoded page whose id differs from the requested page (however that
// happened — injection or a real store bug underneath) surfaces as a
// typed *pagestore.IntegrityError, never as a silently wrong node.
func (in *Injector) Reader(id int, r pagestore.Reader) pagestore.Reader {
	return readerFunc(func(page rtree.PageID) (*rtree.FlatNode, error) {
		delay, readPage, err := in.CheckRead(id, page)
		if delay > 0 {
			time.Sleep(delay)
		}
		if err != nil {
			return nil, err
		}
		n, err := r.ReadPage(readPage)
		if err != nil {
			return nil, err
		}
		if n.ID != page {
			return nil, &pagestore.IntegrityError{Want: page, Got: n.ID}
		}
		return n, nil
	})
}
