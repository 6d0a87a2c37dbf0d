package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(2.0, func() { order = append(order, 2) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(3.0, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3.0 {
		t.Errorf("final clock = %g", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []float64
	s.At(1.0, func() {
		fired = append(fired, s.Now())
		s.After(0.5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 1.0 || fired[1] != 1.5 {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5.0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on past scheduling")
			}
		}()
		s.At(1.0, func() {})
	})
	s.Run()
}

func TestInvalidTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on NaN time")
		}
	}()
	s.At(math.NaN(), func() {})
}

func TestStationFCFSNoOverlap(t *testing.T) {
	s := New()
	st := NewStation(s)
	type span struct{ start, finish float64 }
	var spans []span
	// Three jobs submitted at t=0 with service 1s each must run
	// back-to-back.
	for i := 0; i < 3; i++ {
		st.Submit(1.0, func(a, b float64) { spans = append(spans, span{a, b}) })
	}
	s.Run()
	if len(spans) != 3 {
		t.Fatalf("completions = %d", len(spans))
	}
	want := []span{{0, 1}, {1, 2}, {2, 3}}
	for i, sp := range spans {
		if sp != want[i] {
			t.Errorf("job %d span = %v, want %v", i, sp, want[i])
		}
	}
	stats := st.Stats()
	if stats.Jobs != 3 {
		t.Errorf("jobs = %d", stats.Jobs)
	}
	if stats.BusyTime != 3 {
		t.Errorf("busy = %g", stats.BusyTime)
	}
	if stats.WaitTime != 3 { // 0 + 1 + 2
		t.Errorf("wait = %g", stats.WaitTime)
	}
	if stats.MeanWait() != 1 {
		t.Errorf("mean wait = %g", stats.MeanWait())
	}
	if stats.MaxQueued != 3 {
		t.Errorf("max queued = %d", stats.MaxQueued)
	}
}

func TestStationIdleGap(t *testing.T) {
	s := New()
	st := NewStation(s)
	var finishes []float64
	s.At(0, func() { st.Submit(1, func(_, f float64) { finishes = append(finishes, f) }) })
	// Second job arrives after the first finished: no queueing delay.
	s.At(5, func() { st.Submit(2, func(_, f float64) { finishes = append(finishes, f) }) })
	s.Run()
	if len(finishes) != 2 || finishes[0] != 1 || finishes[1] != 7 {
		t.Errorf("finishes = %v", finishes)
	}
	if w := st.Stats().WaitTime; w != 0 {
		t.Errorf("wait = %g, want 0", w)
	}
	if u := st.Stats().Utilization(10); math.Abs(u-0.3) > 1e-12 {
		t.Errorf("utilization = %g, want 0.3", u)
	}
}

func TestStationNegativeServicePanics(t *testing.T) {
	s := New()
	st := NewStation(s)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	st.Submit(-1, nil)
}

// Property: for any set of (arrival, service) pairs submitted in arrival
// order, the FCFS station produces completions in submission order, jobs
// never overlap, and each job starts no earlier than its arrival.
func TestStationFCFSProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		st := NewStation(s)
		arr := make([]float64, n)
		svc := make([]float64, n)
		tcur := 0.0
		for i := 0; i < n; i++ {
			tcur += rnd.Float64() * 2
			arr[i] = tcur
			svc[i] = rnd.Float64() * 3
		}
		type rec struct {
			idx           int
			start, finish float64
		}
		var recs []rec
		for i := 0; i < n; i++ {
			i := i
			s.At(arr[i], func() {
				st.Submit(svc[i], func(a, b float64) {
					recs = append(recs, rec{i, a, b})
				})
			})
		}
		s.Run()
		if len(recs) != n {
			return false
		}
		prevFinish := 0.0
		for j, r := range recs {
			if r.idx != j { // completion order == submission order
				return false
			}
			if r.start+1e-12 < arr[r.idx] { // no service before arrival
				return false
			}
			if r.start+1e-12 < prevFinish { // no overlap
				return false
			}
			if math.Abs(r.finish-r.start-svc[r.idx]) > 1e-9 {
				return false
			}
			prevFinish = r.finish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Determinism: two identical runs produce identical traces.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New()
		st := NewStation(s)
		rnd := rand.New(rand.NewSource(42))
		var trace []float64
		for i := 0; i < 50; i++ {
			at := rnd.Float64() * 10
			svc := rnd.Float64()
			s.At(at, func() {
				st.Submit(svc, func(_, f float64) { trace = append(trace, f) })
			})
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
