package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// tailPercentile picks the percentile a latency sample of n values can
// support: p99 from 1 000 samples up, otherwise the highest step of the
// ladder that still leaves at least ten samples beyond it, and the
// median when even p75 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// latencySummary is a timing reported as the choosing-metrics guide
// asks: median, supported tail percentile, sample count.
type latencySummary struct {
	N     int
	P50   float64 // in the unit of the input
	Tail  float64
	TailP float64 // which percentile Tail is (99 unless the sample is thin)
}

func summarizeLatency(xs []float64) latencySummary {
	if len(xs) == 0 {
		return latencySummary{}
	}
	p := tailPercentile(len(xs))
	return latencySummary{N: len(xs), P50: median(xs), Tail: metrics.Percentile(xs, p), TailP: p}
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

func medianMicros(ds []time.Duration) float64 { return median(durationsToMicros(ds)) }

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(xs, n=4), which
// is what the acceptance check of the benchmark uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(2), at(3)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
