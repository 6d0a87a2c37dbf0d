package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%.0f = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Interpolation: P50 of {1,2} is 1.5.
	if got := Percentile([]float64{2, 1}, 50); got != 1.5 {
		t.Errorf("interpolated P50 = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio wrong")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("divide by zero not NaN")
	}
}

// Property: the order statistics and the mean of any sample are
// ordered — P0 ≤ P50 ≤ P95 ≤ P100, with the mean inside [P0, P100].
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		rnd := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rnd.NormFloat64() * 100
		}
		lo, p50, p95, hi := Percentile(xs, 0), Percentile(xs, 50), Percentile(xs, 95), Percentile(xs, 100)
		m := Mean(xs)
		return lo <= p50 && p50 <= p95 && p95 <= hi && m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
