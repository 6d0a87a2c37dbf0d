package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/query"
)

// chaosTimeout bounds every chaos query: a hang under injected faults
// is as much a bug as a wrong answer, and the deadline converts it into
// a typed failure the test can report.
const chaosTimeout = 30 * time.Second

// diskSetOf runs a query under the sequential Driver with an observer
// and reports which disks it physically reads — the ground truth for
// which queries a dead disk must fail.
func diskSetOf(drv query.Driver, q []float64, k int) map[int]bool {
	rec := &diskRecorder{disks: map[int]bool{}}
	drv.Run(query.CRSS{}, q, k, query.Options{Observer: rec})
	return rec.disks
}

type diskRecorder struct{ disks map[int]bool }

func (r *diskRecorder) Observe(ev obs.Event) {
	if ev.Type == obs.FetchDone && !ev.Cached {
		r.disks[ev.Disk] = true
	}
}

// TestChaosMirroredFailStop is the tentpole acceptance gate: across
// many seeded fault schedules, a RAID-1 engine with one fail-stopped
// physical drive must return every kNN result bit-identical to the
// sequential Driver — at least one replica of every page survives, so
// degraded mode must never change an answer. The engines are framed
// (CachePages 0: every leaf is a drive read), and over the seeds the
// dead drives must have shown: a degraded replica or a redirected read.
func TestChaosMirroredFailStop(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	const disks, mirrors, k = 4, 2, 10
	tree, pts := buildTree(t, 2000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 10, 3)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, k, query.Options{})
	}

	var seen int64 // Faults.DisksDegraded + Faults.Redirects, over the seeds
	for seed := 0; seed < seeds; seed++ {
		inj := fault.NewInjector(int64(seed))
		drive := seed % (disks * mirrors)
		inj.Set(drive, fault.Faults{FailAfter: 1 + seed%5})

		eng, err := New(tree, Config{Mirrors: mirrors, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
		for qi, q := range queries {
			got, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{})
			if err != nil {
				t.Fatalf("seed %d (drive %d dead): query %d failed with a live mirror: %v",
					seed, drive, qi, err)
			}
			sameNeighbors(t, fmt.Sprintf("seed %d q%d", seed, qi), want[qi], got)
		}
		cancel()
		f := eng.Snapshot().Faults
		seen += f.DisksDegraded + int64(f.Redirects)
		eng.Close()
	}
	if seen == 0 {
		t.Fatal("no seed degraded a replica or redirected a read: the fail-stops were never reached")
	}
}

// TestChaosRAID0DeadDisk: without mirrors a dead disk is data loss.
// Every query that reads the dead disk must fail with the typed
// *fault.ErrDataUnavailable — never a wrong or partial answer — while
// queries that avoid it still answer bit-identically. The degraded
// replica must show up in Engine.Snapshot.
func TestChaosRAID0DeadDisk(t *testing.T) {
	const disks, k = 8, 3
	tree, pts := buildTree(t, 3000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 30, 7)
	drv := query.Driver{Tree: tree}

	// Kill a disk the root does not live on, so the workload splits
	// into queries that must fail and queries that must not.
	rootPl, ok := tree.Placement(tree.Tree.Root())
	if !ok {
		t.Fatal("root has no placement")
	}
	dead := (rootPl.Disk + 1) % disks

	inj := fault.NewInjector(1)
	inj.Set(dead, fault.Faults{Dead: true})
	eng, err := New(tree, Config{Mirrors: 1, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	failed, succeeded := 0, 0
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, k, query.Options{})
		touchesDead := diskSetOf(drv, q, k)[dead]
		got, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{})
		if touchesDead {
			var dataErr *fault.ErrDataUnavailable
			if !errors.As(err, &dataErr) {
				t.Fatalf("query %d reads dead disk %d: err = %v, want *fault.ErrDataUnavailable", qi, dead, err)
			}
			if dataErr.Disk != dead {
				t.Fatalf("query %d: error names disk %d, dead disk is %d", qi, dataErr.Disk, dead)
			}
			if got != nil {
				t.Fatalf("query %d returned %d results alongside a data-loss error", qi, len(got))
			}
			failed++
			continue
		}
		if err != nil {
			t.Fatalf("query %d avoids dead disk %d but failed: %v", qi, dead, err)
		}
		sameNeighbors(t, fmt.Sprintf("q%d", qi), want, got)
		succeeded++
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("workload did not split: %d failed, %d succeeded — dead-disk coverage is vacuous", failed, succeeded)
	}

	snap := eng.Snapshot()
	if snap.Faults.DisksDegraded != 1 {
		t.Fatalf("DisksDegraded = %d, want 1", snap.Faults.DisksDegraded)
	}
	if !snap.Degraded[dead][0] {
		t.Fatalf("Snapshot.Degraded does not mark disk %d", dead)
	}
	if snap.Stats.FetchErrors == 0 {
		t.Fatal("no FetchErrors counted for dead-disk reads")
	}
}

// TestChaosTransientRetries: transient errors on every drive must be
// absorbed by retries (counted in the fault telemetry); any read that
// still fails must surface as a typed error, never as a wrong answer.
func TestChaosTransientRetries(t *testing.T) {
	const disks, mirrors, k = 4, 2, 10
	tree, pts := buildTree(t, 2000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 20, 5)
	drv := query.Driver{Tree: tree}

	inj := fault.NewInjector(17)
	for d := 0; d < disks*mirrors; d++ {
		inj.Set(d, fault.Faults{Transient: 0.2})
	}
	eng, err := New(tree, Config{Mirrors: mirrors, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, k, query.Options{})
		got, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{})
		if err != nil {
			// Legal only as the typed degraded-mode error (all replicas
			// exhausted their retry budgets) — never a silent wrong answer.
			var dataErr *fault.ErrDataUnavailable
			if !errors.As(err, &dataErr) {
				t.Fatalf("query %d: err = %v, want nil or *fault.ErrDataUnavailable", qi, err)
			}
			continue
		}
		sameNeighbors(t, fmt.Sprintf("q%d", qi), want, got)
	}
	if snap := eng.Snapshot(); snap.Faults.Retries == 0 {
		t.Fatal("transient faults on every drive produced no retries")
	}
}

// TestChaosHedgedReads: with every mirror-0 drive spiking, hedged
// reads must fire after the delay and the fast mirror must win some of
// them — with answers still bit-identical to the Driver.
func TestChaosHedgedReads(t *testing.T) {
	const disks, mirrors, k = 4, 2, 10
	tree, pts := buildTree(t, 2000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 15, 11)
	drv := query.Driver{Tree: tree}

	inj := fault.NewInjector(23)
	for d := 0; d < disks; d++ {
		inj.Set(d*mirrors, fault.Faults{SpikeProb: 1, SpikeDelay: 5 * time.Millisecond})
	}
	eng, err := New(tree, Config{
		Mirrors: mirrors, Fault: inj,
		HedgeReads: true, HedgeDelayFloor: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	for qi, q := range queries {
		want, _ := drv.Run(query.CRSS{}, q, k, query.Options{})
		got, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, fmt.Sprintf("q%d", qi), want, got)
	}
	snap := eng.Snapshot()
	if snap.Faults.Hedges == 0 {
		t.Fatal("universally spiked primaries fired no hedged reads")
	}
	if snap.Faults.HedgeWins == 0 {
		t.Fatal("no hedged read beat a 5ms-spiked primary")
	}
	if snap.Faults.DisksDegraded != 0 {
		t.Fatalf("latency spikes degraded %d replicas; spikes are not failures", snap.Faults.DisksDegraded)
	}
}

// TestChaosRuntimeKillSwitch: a drive set dead mid-workload (Injector.Set)
// degrades on first touch and the mirror carries the rest of the run.
func TestChaosRuntimeKillSwitch(t *testing.T) {
	const disks, mirrors, k = 4, 2, 5
	tree, pts := buildTree(t, 2000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 20, 19)
	drv := query.Driver{Tree: tree}

	inj := fault.NewInjector(5)
	eng, err := New(tree, Config{Mirrors: mirrors, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
	defer cancel()
	for qi, q := range queries {
		if qi == len(queries)/2 {
			inj.Set(0, fault.Faults{Dead: true}) // disk 0, mirror 0
		}
		want, _ := drv.Run(query.CRSS{}, q, k, query.Options{})
		got, _, err := eng.KNN(ctx, query.CRSS{}, q, k, query.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sameNeighbors(t, fmt.Sprintf("q%d", qi), want, got)
	}
	if snap := eng.Snapshot(); snap.Faults.DisksDegraded != 1 && snap.Stats.FetchErrors == 0 {
		// The killed drive degrades lazily, on its next read; with half
		// the workload remaining it must have been touched.
		t.Fatalf("killed drive never observed: degraded=%d fetchErrors=%d",
			snap.Faults.DisksDegraded, snap.Stats.FetchErrors)
	}
}
