package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/query"
	"repro/internal/rtree"
)

// TestCoalesceMatchesDriver is the coalescing correctness gate: with
// request-level fetch coalescing enabled and every read slowed enough
// that concurrent queries genuinely overlap, many clients running the
// same queries must return results bit-identical to the sequential
// Driver — and the engine must actually have coalesced fetches, or the
// test proved nothing.
func TestCoalesceMatchesDriver(t *testing.T) {
	tree, pts := buildTree(t, 1500, 4, false, 0)
	queries := dataset.SampleQueries(pts, 4, 3)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 8, query.Options{})
	}

	// Every read sleeps 1ms, so the clients' stage fan-outs overlap and
	// identical pages coalesce instead of queueing copies.
	inj := fault.NewInjector(7)
	inj.Set(0, fault.Faults{SpikeProb: 1, SpikeDelay: time.Millisecond})
	inj.Set(1, fault.Faults{SpikeProb: 1, SpikeDelay: time.Millisecond})
	inj.Set(2, fault.Faults{SpikeProb: 1, SpikeDelay: time.Millisecond})
	inj.Set(3, fault.Faults{SpikeProb: 1, SpikeDelay: time.Millisecond})
	eng, err := New(tree, Config{CoalesceFetches: true, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				got, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 8, query.Options{})
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("query %d: %d results, want %d", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j].Object != want[i][j].Object || got[j].DistSq != want[i][j].DistSq {
						errs <- fmt.Errorf("query %d result %d: (%d, %g) vs driver (%d, %g)",
							i, j, got[j].Object, got[j].DistSq, want[i][j].Object, want[i][j].DistSq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.FetchesCoalesced == 0 {
		t.Fatal("no fetches coalesced: the test exercised nothing")
	}
	if s.Queries != clients*uint64(len(queries)) {
		t.Fatalf("queries = %d, want %d", s.Queries, clients*len(queries))
	}
	t.Logf("coalesced %d of %d fetch requests (%d worker fetches)",
		s.FetchesCoalesced, s.FetchesCoalesced+s.PagesFetched, s.PagesFetched)
}

// TestCoalesceCancelledLeaderRetries pins the bystander-protection
// path: a query that joined another query's in-flight fetch must not
// fail when that leader is cancelled — it refetches the page itself.
// The test plants a synthetic flight (as if a doomed leader had
// started it), lets a live batch join it, then aborts the flight with
// a cancellation: the batch must deliver the correct node anyway.
func TestCoalesceCancelledLeaderRetries(t *testing.T) {
	tree, _ := buildTree(t, 400, 3, false, 0)
	eng, err := New(tree, Config{CoalesceFetches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	leaf := firstLeaf(t, tree)
	pl, ok := tree.Placement(leaf)
	if !ok {
		t.Fatal("leaf unplaced")
	}
	req := query.PageRequest{Page: leaf, Disk: pl.Disk, Pages: 1}

	// Plant the doomed leader's flight.
	sh, joined := eng.co.join(leaf, newStageScratch(), 0)
	if joined {
		t.Fatal("fresh engine already had a flight for the leaf page")
	}

	done := make(chan error, 1)
	go func() {
		nodes, err := eng.fetchBatch(context.Background(), 0, []query.PageRequest{req}, nil)
		if err != nil {
			done <- err
			return
		}
		if len(nodes) != 1 || nodes[0] == nil || nodes[0].ID != leaf {
			done <- fmt.Errorf("wrong node delivered: %+v", nodes)
			return
		}
		done <- nil
	}()

	// Wait until the batch has joined the planted flight.
	waitForWaiter(t, sh, leaf)
	// The leader's query dies: every joiner gets its cancellation...
	eng.abortFlight(sh, leaf, context.Canceled)
	// ...and the live batch must recover by refetching directly.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("joined batch failed after leader cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined batch hung after leader cancellation")
	}
	if got := eng.Stats().FetchesCoalesced; got != 1 {
		t.Fatalf("FetchesCoalesced = %d, want 1 (the join that was later retried)", got)
	}
}

// TestCoalesceClosedEngineAborts pins the other abort flavor: a joiner
// whose flight dies because the engine closed must fail with ErrClosed
// (not hang, not retry forever).
func TestCoalesceClosedEngineAborts(t *testing.T) {
	tree, _ := buildTree(t, 400, 3, false, 0)
	eng, err := New(tree, Config{CoalesceFetches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	root := tree.Root()
	pl, _ := tree.Placement(root)
	req := query.PageRequest{Page: root, Disk: pl.Disk, Pages: 1}

	sh, _ := eng.co.join(root, newStageScratch(), 0)
	done := make(chan error, 1)
	go func() {
		_, err := eng.fetchBatch(context.Background(), 0, []query.PageRequest{req}, nil)
		done <- err
	}()
	waitForWaiter(t, sh, root)
	eng.abortFlight(sh, root, ErrClosed)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined batch hung after engine-closed abort")
	}
}

// waitForWaiter blocks until page's flight has at least one joined
// waiter registered on sh.
func waitForWaiter(t *testing.T, sh *coShard, page rtree.PageID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		waiters := len(sh.flights[page])
		sh.mu.Unlock()
		if waiters > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no waiter joined the planted flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestJoinedFlightAllocatesNothing: once a shard has delivered a waiter
// list it reuses it — a flight that is led, joined and resolved costs
// no allocation, with one joiner or three — and the spare list holds no
// reference to the stages it served.
func TestJoinedFlightAllocatesNothing(t *testing.T) {
	eng := &Engine{co: newCoalescer()}
	const page = rtree.PageID(9)
	leader := newStageScratch()
	joiners := []*stageScratch{newStageScratch(), newStageScratch(), newStageScratch()}
	flight := func(n int) {
		leader.reset(1)
		sh, joined := eng.co.join(page, leader, 0)
		if joined {
			t.Fatal("the first request joined a flight nobody leads")
		}
		for _, sc := range joiners[:n] {
			sc.reset(1)
			if _, joined := eng.co.join(page, sc, 0); !joined {
				t.Fatal("a request did not join the open flight")
			}
		}
		eng.resolveFlight(sh, page, fetchResult{done: true, err: context.Canceled})
		for _, sc := range joiners[:n] {
			sc.wait(1)
			if res := sc.results[0]; !res.coalesced || res.err != context.Canceled {
				t.Fatalf("joiner got %+v", res)
			}
		}
	}
	flight(len(joiners)) // the shard's first list grows to its size here
	for n := 1; n <= len(joiners); n++ {
		if allocs := testing.AllocsPerRun(100, func() { flight(n) }); allocs != 0 {
			t.Errorf("a flight with %d joiners: %.1f allocations, want 0", n, allocs)
		}
	}
	sh := eng.co.shardOf(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.flights) != 0 || len(sh.spare) != 1 {
		t.Fatalf("at rest: %d flights open, %d spare lists, want 0 and 1", len(sh.flights), len(sh.spare))
	}
	for _, w := range sh.spare[0][:cap(sh.spare[0])] {
		if w.sc != nil {
			t.Error("a spare waiter list still points at a stage")
		}
	}
}
