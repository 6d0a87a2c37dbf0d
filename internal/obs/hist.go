package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent use. An
// observation lands in the first bucket whose upper bound is >= the
// value; values above every bound land in the overflow bucket. The hot
// path is one binary search plus two atomic adds — no locks, no
// allocation — so it can sit on the engine's per-fetch path.
type Histogram struct {
	bounds []float64 // ascending inclusive upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // accumulated float64 bits, CAS loop
}

// DefaultLatencyBounds is the bucket layout the engine uses for its
// wall-clock latency histograms: 1µs to ~8.6s, doubling each bucket.
// 24 buckets resolve percentiles to within a factor of two anywhere in
// that range, which is plenty for spotting a hot disk or a queueing
// collapse.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 24)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (the caller's slice is copied). At least one bound is
// required.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// NewLatencyHistogram is NewHistogram(DefaultLatencyBounds()).
func NewLatencyHistogram() *Histogram { return NewHistogram(DefaultLatencyBounds()) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a point-in-time copy of the histogram. The bucket
// counts are read individually (not under a lock), so a snapshot taken
// during concurrent writes is a consistent-enough view for monitoring:
// each counter is itself exact, and Count is re-derived from the
// buckets so the quantile math never sees a torn total.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is a frozen histogram: bucket counts plus derived
// quantiles. Two snapshots of the same histogram can be diffed with
// Sub to get the distribution of an interval.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last bucket is overflow
	Count  uint64
	Sum    float64
}

// Quantile returns the p-th percentile (0 <= p <= 100) of the
// snapshot. It uses the same rank rule as metrics.Percentile —
// rank = p/100·(N−1) with linear interpolation between order
// statistics — locating the rank's bucket and interpolating linearly
// across that bucket's value range (the resolution is therefore one
// bucket width). Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(s.Count-1)
	// Walk to the bucket holding the rank-th order statistic.
	var before uint64 // observations in earlier buckets
	for i, c := range s.Counts {
		if c == 0 {
			before += c
			continue
		}
		last := float64(before + c - 1)
		if rank <= last {
			lo, hi := s.bucketRange(i)
			if c == 1 {
				return hi
			}
			frac := (rank - float64(before)) / float64(c-1)
			return lo + (hi-lo)*frac
		}
		before += c
	}
	// Unreachable when Count matches Counts, but stay safe.
	return s.Bounds[len(s.Bounds)-1]
}

// bucketRange returns the value range covered by bucket i. The first
// bucket starts at 0 (the histograms here hold non-negative
// latencies); the overflow bucket is collapsed onto the top bound.
func (s HistSnapshot) bucketRange(i int) (lo, hi float64) {
	if i >= len(s.Bounds) {
		top := s.Bounds[len(s.Bounds)-1]
		return top, top
	}
	if i == 0 {
		return 0, s.Bounds[0]
	}
	return s.Bounds[i-1], s.Bounds[i]
}

// P50 is Quantile(50).
func (s HistSnapshot) P50() float64 { return s.Quantile(50) }

// P95 is Quantile(95).
func (s HistSnapshot) P95() float64 { return s.Quantile(95) }

// P99 is Quantile(99).
func (s HistSnapshot) P99() float64 { return s.Quantile(99) }

// Sub returns the histogram of the interval between prev and s (both
// snapshots of the same histogram, prev taken earlier).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		c := s.Counts[i]
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		out.Counts[i] = c
		out.Count += c
	}
	return out
}
