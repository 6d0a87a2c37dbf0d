package exec

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
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

// pagesByDisk walks the tree and groups page ids by their disk.
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
		out[d] = append(out[d], n.ID)
		return true
	})
	return out
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

// TestTraceTerminalEventsOnFailure is the satellite regression gate for
// the observer gap: a query killed by a dead disk (and one killed by
// cancellation) must still close every opened stage with StageDone, and
// FetchDone must cover exactly the fetches that completed — no stage is
// left dangling in the trace.
func TestTraceTerminalEventsOnFailure(t *testing.T) {
	tree, pts := buildTree(t, 3000, 8, false, 0)
	rootPl, ok := tree.Placement(tree.Tree.Root())
	if !ok {
		t.Fatal("root has no placement")
	}
	dead := (rootPl.Disk + 1) % 8
	inj := fault.NewInjector(1)
	inj.Set(dead, fault.Faults{Dead: true})
	eng, err := New(tree, Config{Mirrors: 1, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	failedTraces := 0
	for qi, q := range pts[:40] {
		var col obs.Collector
		_, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{Observer: &col})
		if err == nil {
			continue
		}
		failedTraces++
		for stage, s := range tally(col.Events()) {
			if s.issues != s.dones {
				t.Fatalf("query %d stage %d: %d StageIssue vs %d StageDone — failing stage left open",
					qi, stage, s.issues, s.dones)
			}
			if s.fetchDone > s.fetchIssued {
				t.Fatalf("query %d stage %d: %d FetchDone for %d FetchIssue", qi, stage, s.fetchDone, s.fetchIssued)
			}
		}
	}
	if failedTraces == 0 {
		t.Fatal("no query hit the dead disk; regression coverage is vacuous")
	}

	// Cancellation path: the opened stage still closes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col obs.Collector
	if _, _, err := eng.KNN(ctx, query.CRSS{}, pts[0], 5, query.Options{Observer: &col}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for stage, s := range tally(col.Events()) {
		if s.issues != s.dones {
			t.Fatalf("cancelled query stage %d: %d StageIssue vs %d StageDone", stage, s.issues, s.dones)
		}
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
