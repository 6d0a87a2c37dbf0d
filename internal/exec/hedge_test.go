package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/query"
)

// TestHedgeTimerLifecycle is the regression for the hedge timer audit:
// every timer readHedged starts must be resolved — stopped or fired —
// on every path out of the race (primary-wins, hedge-fired,
// cancellation, error fallback). A path that forgets to resolve its
// timer leaves hedgeTimersLive above zero after the workload drains;
// under sustained load each leak pins a timer-heap entry for the full
// hedge delay per read. Each Close must also leave no goroutine behind:
// a racer that lost must still have somewhere to put its read.
func TestHedgeTimerLifecycle(t *testing.T) {
	const disks, mirrors = 4, 2
	tree, pts := buildTree(t, 2000, disks, false, 0)
	queries := dataset.SampleQueries(pts, 10, 11)
	before := hedgeTimersLive.Load()
	base := runtime.NumGoroutine()

	// Primary-wins path: a huge delay floor means the timer would sit
	// in the heap for a minute per read if any path failed to stop it.
	eng, err := New(tree, Config{Mirrors: mirrors, HedgeReads: true, HedgeDelayFloor: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, _, err := eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if live := hedgeTimersLive.Load() - before; live != 0 {
		t.Fatalf("primary-wins path leaked %d hedge timers", live)
	}
	waitGoroutines(t, base, "primary-wins path")

	// Hedge-fired path: spiked primaries push past a tiny delay floor,
	// so the timer resolves by firing, and the error-fallback walk runs
	// after the race (transient errors on both mirrors).
	inj := fault.NewInjector(23)
	for d := 0; d < disks; d++ {
		inj.Set(d*mirrors, fault.Faults{SpikeProb: 1, SpikeDelay: 2 * time.Millisecond, Transient: 0.3})
		inj.Set(d*mirrors+1, fault.Faults{Transient: 0.3})
	}
	eng, err = New(tree, Config{
		Mirrors: mirrors, Fault: inj,
		HedgeReads: true, HedgeDelayFloor: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		// Errors are fine (transients may exhaust retries); the timer
		// accounting must balance regardless.
		_, _, _ = eng.KNN(context.Background(), query.CRSS{}, q, 5, query.Options{})
	}
	if eng.Snapshot().Faults.Hedges == 0 {
		t.Fatal("spiked primaries fired no hedges; the fired-timer path went untested")
	}
	eng.Close()
	if live := hedgeTimersLive.Load() - before; live != 0 {
		t.Fatalf("hedge-fired/error paths leaked %d hedge timers", live)
	}
	waitGoroutines(t, base, "hedge-fired/error paths")

	// Cancellation path: queries cancelled mid-flight against slow
	// primaries exit readHedged through ctx.Done.
	inj = fault.NewInjector(29)
	for d := 0; d < disks*mirrors; d++ {
		inj.Set(d, fault.Faults{SpikeProb: 1, SpikeDelay: 5 * time.Millisecond})
	}
	eng, err = New(tree, Config{
		Mirrors: mirrors, Fault: inj,
		HedgeReads: true, HedgeDelayFloor: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _, _ = eng.KNN(ctx, query.CRSS{}, q, 5, query.Options{})
		cancel()
	}
	eng.Close()
	if live := hedgeTimersLive.Load() - before; live != 0 {
		t.Fatalf("cancellation path leaked %d hedge timers", live)
	}
	waitGoroutines(t, base, "cancellation path")
}

// TestHedgeDelayCached pins the cached-p99 semantics: the derived
// delay refreshes only every hedgeRefreshEvery observations, so a
// burst of slow reads between refresh points must NOT move the delay
// (the pre-fix code snapshotted the full histogram on every call and
// would shift immediately), and must move it once the refresh
// threshold passes.
func TestHedgeDelayCached(t *testing.T) {
	tree, _ := buildTree(t, 400, 2, false, 0)
	eng, err := New(tree, Config{HedgeDelayFloor: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Below the sample floor the configured floor rules.
	if d := eng.hedgeDelay(); d != time.Microsecond {
		t.Fatalf("thin histogram: delay = %v, want the 1µs floor", d)
	}

	// Prime the histogram past hedgeMinSamples with ~1ms reads and take
	// the first cached value.
	for i := 0; i < hedgeMinSamples; i++ {
		eng.readLat.Observe(1e-3)
	}
	base := eng.hedgeDelay()
	if base < 500*time.Microsecond {
		t.Fatalf("primed delay = %v, want ≈p99 of 1ms reads", base)
	}

	// A burst of much slower reads inside the refresh window: the
	// cached delay must hold (fail-before: per-call snapshots moved
	// here immediately).
	for i := 0; i < hedgeRefreshEvery/2; i++ {
		eng.readLat.Observe(1.0)
	}
	if d := eng.hedgeDelay(); d != base {
		t.Fatalf("delay moved mid-window: %v, want cached %v", d, base)
	}

	// Past the refresh point the slow burst must surface.
	for i := 0; i < hedgeRefreshEvery; i++ {
		eng.readLat.Observe(1.0)
	}
	if d := eng.hedgeDelay(); d <= base {
		t.Fatalf("delay = %v after refresh, want above cached %v", d, base)
	}
}

// BenchmarkHedgeDelay quantifies the satellite fix: the pre-fix code
// paid a full histogram snapshot (bucket copy + quantile walk +
// allocation) on every hedged read; the cached path is a couple of
// atomic loads between refresh points.
func BenchmarkHedgeDelay(b *testing.B) {
	tree, _ := buildTree(b, 400, 2, false, 0)
	eng, err := New(tree, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 1024; i++ {
		eng.readLat.Observe(1e-3)
	}

	b.Run("snapshot-per-call", func(b *testing.B) {
		b.ReportAllocs()
		delay := eng.cfg.HedgeDelayFloor
		for i := 0; i < b.N; i++ {
			// The pre-fix hedgeDelay body, verbatim.
			d := delay
			if s := eng.readLat.Snapshot(); s.Count >= 64 {
				if p := time.Duration(s.P99() * float64(time.Second)); p > d {
					d = p
				}
			}
			_ = d
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = eng.hedgeDelay()
		}
	})
}
