package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

// TestBatchErrorPrecedence pins the stage-error ranking: a real I/O
// error always beats the submit-loop error, which beats cancellation
// noise collected from sibling fetches.
func TestBatchErrorPrecedence(t *testing.T) {
	io := errors.New("io")
	submit := errors.New("submit")
	for _, tc := range []struct {
		name                     string
		ioErr, submitErr, cancel error
		want                     error
	}{
		{"io beats all", io, submit, context.Canceled, io},
		{"io beats cancel", io, nil, context.Canceled, io},
		{"submit beats cancel", nil, submit, context.Canceled, submit},
		{"cancel alone", nil, nil, context.Canceled, context.Canceled},
		{"clean", nil, nil, nil, nil},
	} {
		if got := batchError(tc.ioErr, tc.submitErr, tc.cancel); got != tc.want {
			t.Errorf("%s: batchError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// pagesByDisk walks the tree and groups the ids of the pages a disk
// holds, the leaves, by their disk.
func pagesByDisk(t *testing.T, tree interface {
	Walk(func(*rtree.Node, int) bool)
}, placement func(rtree.PageID) (int, bool)) map[int][]rtree.PageID {
	t.Helper()
	out := map[int][]rtree.PageID{}
	tree.Walk(func(n *rtree.Node, _ int) bool {
		d, ok := placement(n.ID)
		if !ok {
			t.Fatalf("page %d has no placement", n.ID)
		}
		if n.IsLeaf() {
			out[d] = append(out[d], n.ID)
		}
		return true
	})
	return out
}

// firstLeaf returns the first leaf of a walk: a page the engine reads
// from its disk (the directory is served from the tree).
func firstLeaf(t *testing.T, tree *parallel.Tree) rtree.PageID {
	t.Helper()
	var leaf rtree.PageID
	tree.Walk(func(n *rtree.Node, _ int) bool {
		if n.IsLeaf() {
			leaf = n.ID
		}
		return leaf == 0
	})
	if leaf == 0 {
		t.Fatal("the tree has no leaf")
	}
	return leaf
}

// TestFetchBatchIOErrorBeatsCancellation reproduces the masking bug
// end to end: one batch holds a fetch that dies on a dead disk and
// sibling fetches that come back as cancellation noise after the
// caller gives up. The stage must report the I/O error — the root
// cause — and the stats must count both failure classes.
func TestFetchBatchIOErrorBeatsCancellation(t *testing.T) {
	tree, _ := buildTree(t, 2000, 4, false, 0)
	inj := fault.NewInjector(1)
	inj.Set(0, fault.Faults{Dead: true})                                       // disk 0: instant I/O error
	inj.Set(1, fault.Faults{SpikeProb: 1, SpikeDelay: 100 * time.Millisecond}) // disk 1: slow
	eng, err := New(tree, Config{Mirrors: 1, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	byDisk := pagesByDisk(t, eng.tree, func(id rtree.PageID) (int, bool) {
		pl, ok := eng.tree.Placement(id)
		return pl.Disk, ok
	})
	if len(byDisk[0]) < 1 || len(byDisk[1]) < 3 {
		t.Fatalf("layout too small: %d pages on disk 0, %d on disk 1", len(byDisk[0]), len(byDisk[1]))
	}
	mk := func(d int, id rtree.PageID) query.PageRequest {
		return query.PageRequest{Page: id, Disk: d}
	}
	// Three slow fetches on disk 1 (one in service, two queued behind
	// it) plus the doomed disk-0 fetch. Cancelling mid-spike turns the
	// queued disk-1 jobs into cancellation noise.
	reqs := []query.PageRequest{
		mk(1, byDisk[1][0]), mk(1, byDisk[1][1]), mk(1, byDisk[1][2]),
		mk(0, byDisk[0][0]),
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	before := eng.Stats()
	_, err = eng.fetchBatch(ctx, 0, reqs, nil)

	var dataErr *fault.ErrDataUnavailable
	if !errors.As(err, &dataErr) {
		t.Fatalf("fetchBatch err = %v, want *fault.ErrDataUnavailable (cancellation masked the I/O error)", err)
	}
	if dataErr.Disk != 0 {
		t.Fatalf("error names disk %d, dead disk is 0", dataErr.Disk)
	}
	diff := eng.Stats().Sub(before)
	if diff.FetchErrors == 0 {
		t.Error("I/O failure not counted in Stats.FetchErrors")
	}
	if diff.FetchesCancelled == 0 {
		t.Error("cancelled sibling fetches not counted in Stats.FetchesCancelled")
	}
	if got := eng.gauges[0].Failed.Load(); got == 0 {
		t.Error("disk 0 Failed gauge did not move")
	}
}

// countStageEvents tallies one trace's per-stage bookkeeping.
type stageTally struct{ issues, dones, fetchIssued, fetchDone int }

func tally(evs []obs.Event) map[int]*stageTally {
	out := map[int]*stageTally{}
	at := func(stage int) *stageTally {
		if out[stage] == nil {
			out[stage] = &stageTally{}
		}
		return out[stage]
	}
	for _, e := range evs {
		switch e.Type {
		case obs.StageIssue:
			at(e.Stage).issues++
		case obs.StageDone:
			at(e.Stage).dones++
		case obs.FetchIssue:
			at(e.Stage).fetchIssued++
		case obs.FetchDone:
			at(e.Stage).fetchDone++
		}
	}
	return out
}

// checkStagesClosed fails unless every stage the trace opened closed
// with StageDone, and FetchDone covers no more fetches than were issued.
func checkStagesClosed(t *testing.T, label string, evs []obs.Event) {
	t.Helper()
	for stage, s := range tally(evs) {
		if s.issues != s.dones {
			t.Fatalf("%s stage %d: %d StageIssue vs %d StageDone — stage left open",
				label, stage, s.issues, s.dones)
		}
		if s.fetchDone > s.fetchIssued {
			t.Fatalf("%s stage %d: %d FetchDone for %d FetchIssue", label, stage, s.fetchDone, s.fetchIssued)
		}
	}
}

// TestTraceTerminalEventsOnFailure is the regression gate for the
// observer gap: whichever way a stage ends — a dead disk, cancellation,
// a coalesced flight whose leader was cancelled, an engine closed under
// a stage blocked on the in-flight bound — every opened stage closes
// with StageDone, and FetchDone covers exactly the fetches that
// completed. The immediate driver is held to the same rule.
func TestTraceTerminalEventsOnFailure(t *testing.T) {
	tree, pts := buildTree(t, 3000, 8, false, 0)

	t.Run("dead-disk", func(t *testing.T) {
		rootPl, ok := tree.Placement(tree.Tree.Root())
		if !ok {
			t.Fatal("root has no placement")
		}
		inj := fault.NewInjector(1)
		inj.Set((rootPl.Disk+1)%8, fault.Faults{Dead: true})
		eng, err := New(tree, Config{Mirrors: 1, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		failedTraces := 0
		for qi, q := range pts[:40] {
			var col obs.Collector
			if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{Observer: &col}); err == nil {
				continue
			}
			failedTraces++
			checkStagesClosed(t, fmt.Sprintf("query %d", qi), col.Events())
		}
		if failedTraces == 0 {
			t.Fatal("no query hit the dead disk; regression coverage is vacuous")
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		eng, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var col obs.Collector
		if _, _, err := eng.KNN(ctx, query.CRSS{}, pts[0], 5, query.Options{Observer: &col}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkStagesClosed(t, "cancelled query", col.Events())
	})

	// A query joins a flight for the first leaf it reads whose leader
	// then dies of its own cancellation: fetchStage refetches the slot
	// and the query succeeds, its stage closed like any other.
	t.Run("coalesced-leader-cancelled", func(t *testing.T) {
		eng, err := New(tree, Config{CoalesceFetches: true})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var plan obs.Collector
		query.Driver{Tree: tree}.Run(query.CRSS{}, pts[0], 5, query.Options{CachedLevels: tree.Height() - 1, Observer: &plan})
		var leaf rtree.PageID
		for _, ev := range plan.Events() {
			if ev.Type == obs.FetchIssue && !ev.Cached && leaf == 0 {
				leaf = rtree.PageID(ev.Page)
			}
		}
		sh, joined := eng.co.join(leaf, newStageScratch(), 0)
		if joined {
			t.Fatal("fresh engine already had a flight for the leaf page")
		}
		var col obs.Collector
		done := make(chan error, 1)
		go func() {
			_, _, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 5, query.Options{Observer: &col})
			done <- err
		}()
		waitForWaiter(t, sh, leaf)
		eng.abortFlight(sh, leaf, context.Canceled)
		if err := <-done; err != nil {
			t.Fatalf("query failed after its flight's leader was cancelled: %v", err)
		}
		if got := eng.Stats().FetchesCoalesced; got != 1 {
			t.Fatalf("FetchesCoalesced = %d, want 1: the query never joined the flight", got)
		}
		checkStagesClosed(t, "coalesced query", col.Events())
	})

	// Slow reads hold every in-flight slot, a query's first stage blocks
	// waiting for one, and Close makes its submit fail with ErrClosed.
	t.Run("closed-while-blocked", func(t *testing.T) {
		inj := fault.NewInjector(1)
		for d := 0; d < 8; d++ {
			inj.Set(d, fault.Faults{SpikeProb: 1, SpikeDelay: 20 * time.Millisecond})
		}
		eng, err := New(tree, Config{Mirrors: 1, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		var reqs []query.PageRequest
		for d, ids := range pagesByDisk(t, eng.tree, func(id rtree.PageID) (int, bool) {
			pl, ok := eng.tree.Placement(id)
			return pl.Disk, ok
		}) {
			for _, id := range ids {
				reqs = append(reqs, query.PageRequest{Page: id, Disk: d})
			}
		}
		if len(reqs) <= cap(eng.sem) {
			t.Fatalf("%d pages cannot fill %d in-flight slots", len(reqs), cap(eng.sem))
		}
		// The holder is admitted like a query, so Close waits for it
		// before it stops the queues it submits to.
		if err := eng.begin(); err != nil {
			t.Fatal(err)
		}
		holder := make(chan error, 1)
		go func() {
			defer eng.running.Done()
			_, err := eng.fetchBatch(context.Background(), 0, reqs, nil)
			holder <- err
		}()
		waitFor(t, "the slow reads to hold every in-flight slot", func() bool { return len(eng.sem) == cap(eng.sem) })

		var col obs.Collector
		done := make(chan error, 1)
		go func() {
			_, _, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 5, query.Options{Observer: &col})
			done <- err
		}()
		waitFor(t, "the query to open its first stage", func() bool { return len(col.Events()) > 0 })
		time.Sleep(5 * time.Millisecond) // let it reach the full semaphore
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Fatalf("query err = %v, want ErrClosed", err)
		}
		if err := <-holder; !errors.Is(err, ErrClosed) {
			t.Fatalf("slot holder err = %v, want ErrClosed", err)
		}
		checkStagesClosed(t, "query on a closed engine", col.Events())
	})

	t.Run("driver", func(t *testing.T) {
		for _, alg := range []query.Algorithm{query.CRSS{}, query.BBSS{}} {
			var col obs.Collector
			query.Driver{Tree: tree}.Run(alg, pts[1], 5, query.Options{Observer: &col})
			if len(col.Events()) == 0 {
				t.Fatalf("%s: no events traced", alg.Name())
			}
			checkStagesClosed(t, alg.Name(), col.Events())
		}
	})
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestValidationMatchesDriver is the satellite-3 gate: malformed k-NN
// queries must fail identically — same typed error — under the
// sequential Driver and the concurrent engine.
func TestValidationMatchesDriver(t *testing.T) {
	tree, pts := buildTree(t, 500, 3, false, 0)
	drv := query.Driver{Tree: tree}
	eng, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, tc := range []struct {
		name string
		q    []float64
		k    int
	}{
		{"k zero", pts[0], 0},
		{"k negative", pts[0], -3},
		{"nil point", nil, 5},
		{"dim mismatch", []float64{1, 2, 3}, 5},
		{"NaN coordinate", []float64{math.NaN(), 0.5}, 5},
		{"infinite coordinate", []float64{0.5, math.Inf(-1)}, 5},
		{"coordinate beyond the bound", []float64{1e200, 1e200}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, drvErr := drv.RunChecked(query.CRSS{}, tc.q, tc.k, query.Options{})
			_, _, engErr := eng.KNN(context.Background(), query.CRSS{}, tc.q, tc.k, query.Options{})
			var a, b *query.InvalidQueryError
			if !errors.As(drvErr, &a) {
				t.Fatalf("driver err = %v, want *query.InvalidQueryError", drvErr)
			}
			if !errors.As(engErr, &b) {
				t.Fatalf("engine err = %v, want *query.InvalidQueryError", engErr)
			}
			if a.Reason != b.Reason {
				t.Fatalf("paths disagree: driver %q, engine %q", a.Reason, b.Reason)
			}
		})
	}

	// Valid input still passes both.
	if _, _, err := drv.RunChecked(query.CRSS{}, pts[0], 5, query.Options{}); err != nil {
		t.Fatalf("driver rejected a valid query: %v", err)
	}
	if _, _, err := eng.KNN(context.Background(), query.CRSS{}, pts[0], 5, query.Options{}); err != nil {
		t.Fatalf("engine rejected a valid query: %v", err)
	}
}
