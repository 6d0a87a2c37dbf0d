package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkPointParity asserts that PointDistSqBatch over one column set,
// and MinDistSqBatch over that set as a view of points (Hi the same
// slices as Lo), equal MinDistSqBatch over the same points as degenerate
// rectangles in columns of their own, bit for bit (all NaNs
// identified), and the scalar MinDistSq of each.
func checkPointParity(t *testing.T, p Point, pts []Point) {
	t.Helper()
	if len(pts) == 0 {
		PointDistSqBatch(p, nil, nil)
		return
	}
	dim := len(p)
	cols := make([][]float64, dim)
	for a := range cols {
		cols[a] = make([]float64, len(pts))
		for i, q := range pts {
			cols[a][i] = q[a]
		}
	}
	rects := make([]Rect, len(pts))
	for i, q := range pts {
		rects[i] = PointRect(q)
	}
	separate := buildSoA(rects)
	points := RectSoA{Lo: cols, Hi: cols}
	got, view, want := make([]float64, len(pts)), make([]float64, len(pts)), make([]float64, len(pts))
	PointDistSqBatch(p, cols, got)
	MinDistSqBatch(p, &points, view)
	MinDistSqBatch(p, &separate, want)
	for i := range pts {
		if !bitEq(got[i], want[i]) || !bitEq(view[i], want[i]) {
			t.Fatalf("d=%d n=%d entry %d: point kernel %g (%#x), point view %g, rectangle kernel %g (%#x) for p=%v q=%v",
				dim, len(pts), i, got[i], math.Float64bits(got[i]), view[i], want[i], math.Float64bits(want[i]), p, pts[i])
		}
		if s := MinDistSq(p, rects[i]); !bitEq(got[i], s) {
			t.Fatalf("d=%d entry %d: point kernel %g, scalar %g", dim, i, got[i], s)
		}
	}
}

// pointCoord draws a coordinate from a mix of magnitudes, both zeros and
// the values no tree admits (NaN, ±Inf, beyond any CoordBound): the
// point kernel matches the rectangle kernel on every input.
func pointCoord(rng *rand.Rand) float64 {
	switch rng.Intn(14) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return rng.NormFloat64() * 1e150
	case 3:
		return rng.NormFloat64() * 1e-150
	case 4:
		return math.MaxFloat64 * (2*rng.Float64() - 1)
	case 5:
		return float64(rng.Intn(5) - 2) // exact ties with the query
	case 6:
		return math.NaN()
	case 7:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return rng.NormFloat64() * 100
	}
}

// TestPointKernelMatchesRectKernel is the point-leaf kernel's property:
// on every dimension specialization (d = 2..4) and the generic fallback,
// at every batch size up to a page, for coordinates of every magnitude
// and NaN and ±Inf, it is MinDistSqBatch on degenerate rectangles bit
// for bit.
func TestPointKernelMatchesRectKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for dim := 1; dim <= 10; dim++ {
		for _, n := range []int{0, 1, 2, 7, 56, 128} {
			for trial := 0; trial < 25; trial++ {
				p := make(Point, dim)
				for a := range p {
					p[a] = pointCoord(rng)
				}
				pts := make([]Point, n)
				for i := range pts {
					pts[i] = make(Point, dim)
					for a := range pts[i] {
						if rng.Intn(4) == 0 {
							pts[i][a] = p[a] // on the query's axis value
						} else {
							pts[i][a] = pointCoord(rng)
						}
					}
				}
				checkPointParity(t, p, pts)
			}
		}
	}
}

// FuzzPointKernel holds PointDistSqBatch, and MinDistSqBatch on a view
// of points, bit-identical to MinDistSqBatch on the same points as
// degenerate rectangles, for any query and points: NaN and ±Inf
// included, a superset of what a tree admits (|coordinate| ≤
// CoordBound).
func FuzzPointKernel(f *testing.F) {
	f.Add(mkCorpus(1, 2, 1, 2, 3, -4), byte(1))
	f.Add(mkCorpus(0, math.Copysign(0, -1), math.Copysign(0, -1), 0), byte(1))
	f.Add(mkCorpus(1e200, -1e200, -1e200, 1e200, 5, 5), byte(1))
	f.Add(mkCorpus(math.Inf(1), math.NaN(), math.Inf(1), 3, math.Inf(-1), math.NaN()), byte(1))
	f.Add(mkCorpus(1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 0, 0, 0, 0), byte(3))
	f.Add(mkCorpus(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, dimByte byte) {
		dim := 1 + int(dimByte)%9
		var vals []float64
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(vals) < 2*dim {
			t.Skip("not enough input")
		}
		p := Point(vals[:dim])
		var pts []Point
		for rest := vals[dim:]; len(rest) >= dim; rest = rest[dim:] {
			pts = append(pts, Point(rest[:dim]))
		}
		checkPointParity(t, p, pts)
	})
}
