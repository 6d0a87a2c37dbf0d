package obs

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	want := []uint64{2, 1, 1, 1} // (..1], (1..2], (2..4], overflow
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if s.Sum != 106 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	if q := (HistSnapshot{}).Quantile(50); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

// TestHistogramQuantileMatchesMetrics is the "reuse metrics.Percentile
// semantics" contract: for samples spread over the bucket range, the
// histogram quantile must agree with the exact order-statistic
// percentile to within one bucket width.
func TestHistogramQuantileMatchesMetrics(t *testing.T) {
	bounds := DefaultLatencyBounds()
	h := NewHistogram(bounds)
	rnd := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 3000)
	for i := 0; i < 3000; i++ {
		// Log-uniform over ~1µs..1s, the realistic latency band.
		v := 1e-6 * float64(uint64(1)<<uint(rnd.Intn(20))) * (1 + rnd.Float64())
		xs = append(xs, v)
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, p := range []float64{50, 95, 99} {
		exact := metrics.Percentile(xs, p)
		got := s.Quantile(p)
		// One doubling bucket of slack: got within [exact/2, exact*2].
		if got < exact/2 || got > exact*2 {
			t.Errorf("P%g = %g, exact %g (off by more than a bucket)", p, got, exact)
		}
	}
	// Quantiles are monotone in p.
	if !(s.P50() <= s.P95() && s.P95() <= s.P99()) {
		t.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g", s.P50(), s.P95(), s.P99())
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.003)
	s := h.Snapshot()
	for _, p := range []float64{0, 50, 100} {
		q := s.Quantile(p)
		// The single sample's bucket is (2.048ms, 4.096ms].
		if q < 0.002 || q > 0.0041 {
			t.Errorf("P%g = %g, want within the sample's bucket", p, q)
		}
	}
}

func TestHistogramSub(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	before := h.Snapshot()
	h.Observe(5)
	h.Observe(50)
	diff := h.Snapshot().Sub(before)
	if diff.Count != 2 {
		t.Fatalf("diff count = %d", diff.Count)
	}
	if diff.Counts[1] != 1 || diff.Counts[2] != 1 {
		t.Errorf("diff counts = %v", diff.Counts)
	}
	if diff.Sum != 55 {
		t.Errorf("diff sum = %g", diff.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(rnd.Float64() * 0.01)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Fatalf("snapshot count = %d", s.Count)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestBalanceRatio(t *testing.T) {
	cases := []struct {
		served []uint64
		want   float64
	}{
		{nil, 0},
		{[]uint64{0, 0}, 0},
		{[]uint64{10, 10, 10, 10}, 1},
		{[]uint64{40, 0, 0, 0}, 4},
		{[]uint64{30, 10}, 1.5},
	}
	for _, c := range cases {
		if got := BalanceRatio(c.served); got != c.want {
			t.Errorf("BalanceRatio(%v) = %g, want %g", c.served, got, c.want)
		}
	}
}

func TestDiskGauges(t *testing.T) {
	var g DiskGauges
	g.Queued.Add(3)
	g.Queued.Add(-1)
	g.InFlight.Add(1)
	g.Served.Add(5)
	g.Cancelled.Add(2)
	s := g.Snapshot()
	if s.Queued != 2 || s.InFlight != 1 || s.Served != 5 || s.Cancelled != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	g.Served.Add(4)
	d := g.Snapshot().Sub(s)
	if d.Served != 4 || d.Cancelled != 0 || d.Queued != 2 {
		t.Fatalf("diff = %+v", d)
	}
}

func TestEventSchema(t *testing.T) {
	e := Event{Type: FetchDone, Stage: 2, Page: 7, Disk: 1, Wall: 5, SimTime: 0.25, CacheHit: true}
	s := e.Schema()
	if s.Wall != 0 || s.SimTime != 0 || s.CacheHit {
		t.Errorf("Schema left timing fields: %+v", s)
	}
	if s.Page != 7 || s.Stage != 2 || s.Disk != 1 {
		t.Errorf("Schema dropped identity fields: %+v", s)
	}
	if (Event{Type: SemWait}).Core() {
		t.Error("SemWait claimed to be core schema")
	}
	for ty := QueryStart; ty <= SemWait; ty++ {
		if strings.HasPrefix(ty.String(), "event(") {
			t.Errorf("type %d has no name", ty)
		}
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Observe(Event{Type: QueryStart})
	c.Observe(Event{Type: SemWait, Wall: 9})
	c.Observe(Event{Type: QueryEnd, Wall: 12})
	if got := len(c.Events()); got != 3 {
		t.Fatalf("%d events", got)
	}
	core := c.CoreSchema()
	if len(core) != 2 || core[0].Type != QueryStart || core[1].Type != QueryEnd || core[1].Wall != 0 {
		t.Fatalf("core schema = %+v", core)
	}
}

func TestStartDebugServer(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "memstats") {
		t.Error("expvar output missing memstats")
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

// TestDebugServerShutdown is the regression for the missing shutdown
// path: Close must report a clean exit (nil, with http.ErrServerClosed
// swallowed), be safe to call twice, and actually release the port.
func TestDebugServerShutdown(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("Close reported %v on a clean exit", err)
	}
	// A second Close must be safe and still report clean.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close reported %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr)); err == nil {
		t.Fatal("server still answering after Close")
	}
	// The port must be free for rebinding.
	srv2, err := StartDebugServer(addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("Close reported %v on a clean exit", err)
	}
}
