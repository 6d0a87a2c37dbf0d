package geom

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzGeomMetrics checks the ordering the paper's pruning rules depend
// on — 0 ≤ Dmin² ≤ Dmm² ≤ Dmax² for every point/rectangle pair — plus
// the containment, degenerate-rectangle and sphere-predicate identities
// that tie the three metrics together, all in squared form. A violation of any of these
// breaks branch-and-bound correctness silently (wrong prune, wrong
// result), which is why they get a fuzzer rather than a few examples.
func FuzzGeomMetrics(f *testing.F) {
	f.Add(mkCorpus(2, 1, 2, 0, 0, 3, 4), byte(2))       // point outside rect
	f.Add(mkCorpus(1, 1, 0, 0, 2, 2, 9), byte(2))       // point inside rect
	f.Add(mkCorpus(5, -3, 5, -3, 5, -3, 1), byte(2))    // degenerate rect == point
	f.Add(mkCorpus(1e100, -1e100, 0, 0, 1, 1), byte(1)) // huge magnitudes
	f.Fuzz(func(t *testing.T, data []byte, dimByte byte) {
		dim := 1 + int(dimByte)%6
		vals := make([]float64, 0, 3*dim+1)
		for i := 0; i+8 <= len(data) && len(vals) < 3*dim+1; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				t.Skip("out-of-domain coordinate")
			}
			vals = append(vals, v)
		}
		if len(vals) < 3*dim+1 {
			t.Skip("not enough input")
		}
		p := Point(vals[:dim])
		lo := make(Point, dim)
		hi := make(Point, dim)
		for d := 0; d < dim; d++ {
			a, b := vals[dim+2*d], vals[dim+2*d+1]
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		r := Rect{Lo: lo, Hi: hi}
		radiusSq := math.Abs(vals[3*dim])

		dmin := MinDistSq(p, r)
		dmm := MinMaxDistSq(p, r)
		dmax := MaxDistSq(p, r)

		if dmin < 0 || dmm < 0 || dmax < 0 {
			t.Fatalf("negative metric: Dmin²=%g Dmm²=%g Dmax²=%g", dmin, dmm, dmax)
		}
		// The three metrics sum the same per-axis squared offsets in
		// different selections, so cross-comparisons need a relative
		// tolerance for the differing summation order.
		if !leqApprox(dmin, dmm) {
			t.Fatalf("Dmin² %g > Dmm² %g for p=%v r=%v", dmin, dmm, p, r)
		}
		if !leqApprox(dmm, dmax) {
			t.Fatalf("Dmm² %g > Dmax² %g for p=%v r=%v", dmm, dmax, p, r)
		}

		// A contained point has Dmin² exactly 0: every axis contributes
		// nothing.
		if r.Contains(PointRect(p)) && dmin != 0 {
			t.Fatalf("p=%v inside r=%v but Dmin²=%g", p, r, dmin)
		}

		// The batch kernels promise BIT-identical results to the scalar
		// kernels — exact equality, no tolerance.
		soa := buildSoA([]Rect{r})
		batch := make([]float64, 3)
		MinDistSqBatch(p, &soa, batch[0:1])
		MinMaxDistSqBatch(p, &soa, batch[1:2])
		MaxDistSqBatch(p, &soa, batch[2:3])
		if !bitEq(batch[0], dmin) || !bitEq(batch[1], dmm) || !bitEq(batch[2], dmax) {
			t.Fatalf("batch/scalar divergence: batch=(%g,%g,%g) scalar=(%g,%g,%g) for p=%v r=%v",
				batch[0], batch[1], batch[2], dmin, dmm, dmax, p, r)
		}

		// Against the degenerate rectangle of a point, all three metrics
		// collapse to the plain squared distance, computed from the same
		// per-axis terms in the same order — exact equality holds.
		q := Point(vals[dim : 2*dim])
		pr := PointRect(q)
		want := p.DistSq(q)
		if got := MinDistSq(p, pr); got != want {
			t.Fatalf("Dmin² to degenerate rect: got %g, want %g", got, want)
		}
		if got := MaxDistSq(p, pr); got != want {
			t.Fatalf("Dmax² to degenerate rect: got %g, want %g", got, want)
		}

		// The sphere of squared radius radiusSq around p encloses r when
		// Dmax² ≤ radiusSq and meets it when Dmin² ≤ radiusSq: enclosing
		// must imply meeting.
		if dmax <= radiusSq && dmin > radiusSq {
			t.Fatalf("sphere contains r but does not intersect it (radius²=%g)", radiusSq)
		}
	})
}

// leqApprox is a ≤ b up to a relative tolerance for the reordered
// floating-point summations inside the metrics.
func leqApprox(a, b float64) bool {
	tol := 1e-9 * math.Max(math.Abs(a), math.Abs(b))
	return a <= b+tol
}

// mkCorpus packs float64 coordinates into the little-endian byte stream
// the fuzz target reads.
func mkCorpus(vals ...float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}
