// Batched distance kernels over a struct-of-arrays rectangle layout.
//
// The similarity-search algorithms spend their CPU budget computing
// Dmin/Dmm/Dmax for every directory entry of a node before any disk
// fetch is scheduled. The scalar kernels above walk one pointer-rich
// Rect at a time: per entry they dereference two slice headers, loop
// over the dimension with bounds checks, and (for Dmm) allocate two
// scratch slices. The batch kernels below take the same inputs laid out
// entry-contiguously per axis (lo[axis][i], hi[axis][i]) and compute a
// whole node's metrics in one branch-light pass — dimension-specialized
// for d = 2..4, with a generic fallback — which is the layout a
// vectorizing compiler wants and, in gc today, what removes the pointer
// chasing, per-entry allocation and most bounds checks.
//
// Parity contract: every batch kernel is BIT-IDENTICAL to its scalar
// counterpart (MinDistSq, MinMaxDistSq, MaxDistSq, Sphere.MinDistSq,
// Sphere.MaxDistSq, SphereRectMin; MinDistSq of a PointRect for the
// point kernel) for every input, including NaN and
// ±Inf coordinates — with all NaNs identified, since IEEE 754 leaves
// NaN payload propagation to the hardware. The kernels replicate the
// scalar operation order axis by axis, so no floating-point
// reassociation can diverge. The contract is enforced by golden tests
// over the committed fuzz corpora and by FuzzGeomMetrics and
// FuzzPointKernel; the driver/simulator/engine parity suites depend on
// it.
package geom

import (
	"fmt"
	"math"
)

// RectSoA is a struct-of-arrays view of n axis-aligned rectangles: the
// i-th rectangle spans Lo[a][i]..Hi[a][i] on axis a. All axis slices
// share one length (the batch size). The view is read-only to this
// package; builders typically back all axes with one contiguous
// allocation (see rtree.FlatNode).
type RectSoA struct {
	Lo, Hi [][]float64
}

// Dim returns the dimensionality of the view.
func (r *RectSoA) Dim() int { return len(r.Lo) }

// Len returns the number of rectangles in the view.
func (r *RectSoA) Len() int {
	if len(r.Lo) == 0 {
		return 0
	}
	return len(r.Lo[0])
}

// MakeRectSoA allocates a RectSoA for n rectangles of the given
// dimensionality, all axes backed by a single contiguous array.
func MakeRectSoA(dim, n int) RectSoA {
	backing := make([]float64, 2*dim*n)
	s := RectSoA{Lo: make([][]float64, dim), Hi: make([][]float64, dim)}
	for a := 0; a < dim; a++ {
		s.Lo[a] = backing[(2*a)*n : (2*a+1)*n : (2*a+1)*n]
		s.Hi[a] = backing[(2*a+1)*n : (2*a+2)*n : (2*a+2)*n]
	}
	return s
}

// SphereSoA is a struct-of-arrays view of n bounding spheres (the
// SR-tree entry descriptor): sphere i is centered at Center[a][i] with
// radius Radius[i]. Unlike Sphere there is no per-entry "absent" state:
// a SphereSoA is only built for nodes where every entry carries a
// sphere.
type SphereSoA struct {
	Center [][]float64
	Radius []float64
}

// Dim returns the dimensionality of the view.
func (s *SphereSoA) Dim() int { return len(s.Center) }

// Len returns the number of spheres in the view.
func (s *SphereSoA) Len() int { return len(s.Radius) }

// MakeSphereSoA allocates a SphereSoA for n spheres of the given
// dimensionality, center axes and radii backed by one array.
func MakeSphereSoA(dim, n int) SphereSoA {
	backing := make([]float64, (dim+1)*n)
	s := SphereSoA{Center: make([][]float64, dim), Radius: backing[dim*n : (dim+1)*n : (dim+1)*n]}
	for a := 0; a < dim; a++ {
		s.Center[a] = backing[a*n : (a+1)*n : (a+1)*n]
	}
	return s
}

// checkBatch validates one batch call's shapes; the panics mirror the
// scalar kernels' dimension-mismatch panics.
func checkBatch(p Point, dim, n int, out []float64) {
	if len(p) != dim {
		panic(fmt.Sprintf("geom: batch dimension mismatch: point %d, view %d", len(p), dim))
	}
	if len(out) < n {
		panic(fmt.Sprintf("geom: batch output too short: %d < %d", len(out), n))
	}
}

// MinDistSqBatch computes out[i] = MinDistSq(p, r_i) for every
// rectangle of the view. out must hold at least r.Len() values. A view
// of points — Hi the same slices as Lo, as a point-leaf page's is — goes
// to PointDistSqBatch, which reads the one column set once.
func MinDistSqBatch(p Point, r *RectSoA, out []float64) {
	n := r.Len()
	if n == 0 {
		return
	}
	if &r.Lo[0] == &r.Hi[0] {
		PointDistSqBatch(p, r.Lo, out)
		return
	}
	checkBatch(p, r.Dim(), n, out)
	switch len(p) {
	case 2:
		minDistSq2(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], out[:n])
	case 3:
		minDistSq3(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], out[:n])
	case 4:
		minDistSq4(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], r.Lo[3][:n], r.Hi[3][:n], out[:n])
	default:
		minDistSqGeneric(p, r, out[:n])
	}
}

// minDistAxis is one axis's Dmin² contribution: (lo-p)² when p < lo,
// (p-hi)² when p > hi, else 0. The two tests are independent stores
// rather than an early-exit chain — for a valid rect at most one fires,
// and the lo side stores last so an inverted rect (lo > hi, both fire)
// resolves to (lo-p)², the branch the scalar kernel's switch takes
// first. NaN coordinates fail both tests and contribute 0, exactly as
// the scalar switch does.
func minDistAxis(p, lo, hi float64) float64 {
	var c float64
	if d := p - hi; d > 0 {
		c = d * d
	}
	if d := lo - p; d > 0 {
		c = d * d
	}
	return c
}

func minDistSq2(p Point, lo0, hi0, lo1, hi1, out []float64) {
	p0, p1 := p[0], p[1]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	for i := range out {
		out[i] = minDistAxis(p0, lo0[i], hi0[i]) + minDistAxis(p1, lo1[i], hi1[i])
	}
}

func minDistSq3(p Point, lo0, hi0, lo1, hi1, lo2, hi2, out []float64) {
	p0, p1, p2 := p[0], p[1], p[2]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	for i := range out {
		s := minDistAxis(p0, lo0[i], hi0[i]) + minDistAxis(p1, lo1[i], hi1[i])
		out[i] = s + minDistAxis(p2, lo2[i], hi2[i])
	}
}

func minDistSq4(p Point, lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3, out []float64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	lo3, hi3 = lo3[:len(out)], hi3[:len(out)]
	for i := range out {
		s := minDistAxis(p0, lo0[i], hi0[i]) + minDistAxis(p1, lo1[i], hi1[i])
		s += minDistAxis(p2, lo2[i], hi2[i])
		out[i] = s + minDistAxis(p3, lo3[i], hi3[i])
	}
}

// minDistSqGeneric is the any-dimension fallback: axis-outer
// accumulation into out. Per entry the axis contributions are added in
// axis order starting from 0, exactly the scalar summation order.
func minDistSqGeneric(p Point, r *RectSoA, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for a, pa := range p {
		lo, hi := r.Lo[a][:len(out)], r.Hi[a][:len(out)]
		for i := range out {
			out[i] += minDistAxis(pa, lo[i], hi[i])
		}
	}
}

// PointDistSqBatch computes out[i] = MinDistSq(p, PointRect(x_i)) for n
// points laid out axis-major in one column set: point x_i is
// (pts[0][i], …, pts[dim−1][i]). It is the leaf kernel of a point-leaf
// page, whose view keeps one column set where a rectangle view keeps a
// low and a high corner, and MinDistSqBatch hands such a view (Hi the
// same slices as Lo) to it. Per axis it squares p − x once, where the
// rectangle kernel tests both corners, and adds the terms in axis order:
// where p − x is positive the term is minDistAxis's (p − hi)², where
// negative its (lo − p)² — the same magnitude squared — and where zero
// +0, as minDistAxis's untouched term is. A NaN p − x, which fails both
// of minDistAxis's tests and counts 0 there, makes the sum NaN here (no
// other sum of terms that are never negative is), and such an entry is
// summed again without it. So for every input, NaN and ±Inf included,
// it is MinDistSqBatch on the same points as degenerate rectangles in
// columns of their own, bit for bit. Each square is rounded before it is
// added (the float64 conversions), so no platform fuses a multiply into
// the next add. out must hold at least len(pts[0]) values.
func PointDistSqBatch(p Point, pts [][]float64, out []float64) {
	if len(pts) == 0 || len(pts[0]) == 0 {
		return
	}
	n := len(pts[0])
	checkBatch(p, len(pts), n, out)
	switch len(p) {
	case 2:
		pointDistSq2(p, pts[0][:n], pts[1][:n], out[:n])
	case 3:
		pointDistSq3(p, pts[0][:n], pts[1][:n], pts[2][:n], out[:n])
	case 4:
		pointDistSq4(p, pts[0][:n], pts[1][:n], pts[2][:n], pts[3][:n], out[:n])
	default:
		pointDistSqGeneric(p, pts, out[:n])
	}
	for i, v := range out[:n] {
		if math.IsNaN(v) {
			out[i] = pointDistSqDroppingNaN(p, pts, i)
		}
	}
}

// pointDistSqDroppingNaN is point i's sum with every NaN term left out:
// from 0, in axis order, as minDistSqGeneric sums.
func pointDistSqDroppingNaN(p Point, pts [][]float64, i int) float64 {
	var s float64
	for a, pa := range p {
		if d := pa - pts[a][i]; !math.IsNaN(d) {
			s += float64(d * d)
		}
	}
	return s
}

func pointDistSq2(p Point, x0, x1, out []float64) {
	p0, p1 := p[0], p[1]
	x0, x1 = x0[:len(out)], x1[:len(out)]
	for i := range out {
		d0, d1 := p0-x0[i], p1-x1[i]
		out[i] = float64(d0*d0) + float64(d1*d1)
	}
}

func pointDistSq3(p Point, x0, x1, x2, out []float64) {
	p0, p1, p2 := p[0], p[1], p[2]
	x0, x1, x2 = x0[:len(out)], x1[:len(out)], x2[:len(out)]
	for i := range out {
		d0, d1, d2 := p0-x0[i], p1-x1[i], p2-x2[i]
		s := float64(d0*d0) + float64(d1*d1)
		out[i] = s + float64(d2*d2)
	}
}

func pointDistSq4(p Point, x0, x1, x2, x3, out []float64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	x0, x1, x2, x3 = x0[:len(out)], x1[:len(out)], x2[:len(out)], x3[:len(out)]
	for i := range out {
		d0, d1, d2, d3 := p0-x0[i], p1-x1[i], p2-x2[i], p3-x3[i]
		s := float64(d0*d0) + float64(d1*d1)
		s += float64(d2 * d2)
		out[i] = s + float64(d3*d3)
	}
}

// pointDistSqGeneric is the any-dimension fallback: axis-outer
// accumulation into out from 0, in axis order, like minDistSqGeneric.
func pointDistSqGeneric(p Point, pts [][]float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for a, pa := range p {
		x := pts[a][:len(out)]
		for i := range out {
			d := pa - x[i]
			out[i] += float64(d * d)
		}
	}
}

// nearFarAxis computes one axis's MINMAXDIST terms: near = |p - rm|²
// for the nearer corner coordinate rm, far = |p - rM|² for the farther
// corner coordinate rM, selected exactly as the scalar MinMaxDistSq
// does (p <= mid picks lo as near; p >= mid picks lo as far).
func nearFarAxis(p, lo, hi float64) (near, far float64) {
	mid := (lo + hi) / 2
	var rm, rM float64
	if p <= mid {
		rm = lo
	} else {
		rm = hi
	}
	if p >= mid {
		rM = lo
	} else {
		rM = hi
	}
	dn := p - rm
	df := p - rM
	return dn * dn, df * df
}

// MinMaxDistSqBatch computes out[i] = MinMaxDistSq(p, r_i) for every
// rectangle of the view. out must hold at least r.Len() values.
func MinMaxDistSqBatch(p Point, r *RectSoA, out []float64) {
	n := r.Len()
	if n == 0 {
		return
	}
	checkBatch(p, r.Dim(), n, out)
	switch len(p) {
	case 2:
		minMaxDistSq2(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], out[:n])
	case 3:
		minMaxDistSq3(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], out[:n])
	case 4:
		minMaxDistSq4(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], r.Lo[3][:n], r.Hi[3][:n], out[:n])
	default:
		minMaxDistSqGeneric(p, r, out[:n])
	}
}

func minMaxDistSq2(p Point, lo0, hi0, lo1, hi1, out []float64) {
	p0, p1 := p[0], p[1]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	for i := range out {
		n0, f0 := nearFarAxis(p0, lo0[i], hi0[i])
		n1, f1 := nearFarAxis(p1, lo1[i], hi1[i])
		// Candidate sums in scalar axis order, compared against a +Inf
		// seed with strict < exactly like the scalar min loop (an all-NaN
		// candidate set must yield +Inf, not NaN).
		best := math.Inf(1)
		if v := n0 + f1; v < best {
			best = v
		}
		if v := f0 + n1; v < best {
			best = v
		}
		out[i] = best
	}
}

func minMaxDistSq3(p Point, lo0, hi0, lo1, hi1, lo2, hi2, out []float64) {
	p0, p1, p2 := p[0], p[1], p[2]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	for i := range out {
		n0, f0 := nearFarAxis(p0, lo0[i], hi0[i])
		n1, f1 := nearFarAxis(p1, lo1[i], hi1[i])
		n2, f2 := nearFarAxis(p2, lo2[i], hi2[i])
		best := math.Inf(1)
		if v := n0 + f1 + f2; v < best {
			best = v
		}
		if v := f0 + n1 + f2; v < best {
			best = v
		}
		if v := f0 + f1 + n2; v < best {
			best = v
		}
		out[i] = best
	}
}

func minMaxDistSq4(p Point, lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3, out []float64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	lo3, hi3 = lo3[:len(out)], hi3[:len(out)]
	for i := range out {
		n0, f0 := nearFarAxis(p0, lo0[i], hi0[i])
		n1, f1 := nearFarAxis(p1, lo1[i], hi1[i])
		n2, f2 := nearFarAxis(p2, lo2[i], hi2[i])
		n3, f3 := nearFarAxis(p3, lo3[i], hi3[i])
		best := math.Inf(1)
		if v := n0 + f1 + f2 + f3; v < best {
			best = v
		}
		if v := f0 + n1 + f2 + f3; v < best {
			best = v
		}
		if v := f0 + f1 + n2 + f3; v < best {
			best = v
		}
		if v := f0 + f1 + f2 + n3; v < best {
			best = v
		}
		out[i] = best
	}
}

// minMaxDistSqGeneric is the any-dimension fallback. The near/far
// scratch lives on the stack for d <= 8 and is allocated once per batch
// call beyond that — never per entry, which is where the scalar kernel
// spends its allocations.
func minMaxDistSqGeneric(p Point, r *RectSoA, out []float64) {
	dim := len(p)
	if dim == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	var nearArr, farArr [8]float64
	var near, far []float64
	if dim <= len(nearArr) {
		near, far = nearArr[:dim], farArr[:dim]
	} else {
		near, far = make([]float64, dim), make([]float64, dim)
	}
	for i := range out {
		for j := 0; j < dim; j++ {
			near[j], far[j] = nearFarAxis(p[j], r.Lo[j][i], r.Hi[j][i])
		}
		// Candidate sums from scratch in fixed axis order, first
		// strictly-smaller candidate wins — the scalar kernel's exact
		// absorption-safe evaluation (see MinMaxDistSq).
		best := math.Inf(1)
		for k := 0; k < dim; k++ {
			var v float64
			for j := 0; j < dim; j++ {
				if j == k {
					v += near[j]
				} else {
					v += far[j]
				}
			}
			if v < best {
				best = v
			}
		}
		out[i] = best
	}
}

// maxDistAxis is one axis's Dmax² contribution: the squared larger
// absolute offset to the two corner coordinates,
// Max(Abs(p-lo), Abs(p-hi))² in the scalar kernel. Squaring is the
// absolute value and |x| ≥ |y| iff x² ≥ y², so the squares are compared
// directly — two multiplies and two compares on the hot path instead of
// math.Max's special-case chain. The fall-through replicates math.Max's
// special-case order exactly: +Inf beats NaN (Max(NaN, +Inf) is +Inf),
// and only then NaN propagates. ±0 needs no care — both squares are +0.
func maxDistAxis(p, lo, hi float64) float64 {
	a := p - lo
	a *= a
	b := p - hi
	b *= b
	if a > b {
		return a
	}
	if b >= a {
		return b
	}
	// Unordered: at least one of a, b is NaN.
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	return math.NaN()
}

// MaxDistSqBatch computes out[i] = MaxDistSq(p, r_i) for every
// rectangle of the view. out must hold at least r.Len() values.
func MaxDistSqBatch(p Point, r *RectSoA, out []float64) {
	n := r.Len()
	if n == 0 {
		return
	}
	checkBatch(p, r.Dim(), n, out)
	switch len(p) {
	case 2:
		maxDistSq2(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], out[:n])
	case 3:
		maxDistSq3(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], out[:n])
	case 4:
		maxDistSq4(p, r.Lo[0][:n], r.Hi[0][:n], r.Lo[1][:n], r.Hi[1][:n], r.Lo[2][:n], r.Hi[2][:n], r.Lo[3][:n], r.Hi[3][:n], out[:n])
	default:
		maxDistSqGeneric(p, r, out[:n])
	}
}

func maxDistSq2(p Point, lo0, hi0, lo1, hi1, out []float64) {
	p0, p1 := p[0], p[1]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	for i := range out {
		out[i] = maxDistAxis(p0, lo0[i], hi0[i]) + maxDistAxis(p1, lo1[i], hi1[i])
	}
}

func maxDistSq3(p Point, lo0, hi0, lo1, hi1, lo2, hi2, out []float64) {
	p0, p1, p2 := p[0], p[1], p[2]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	for i := range out {
		s := maxDistAxis(p0, lo0[i], hi0[i]) + maxDistAxis(p1, lo1[i], hi1[i])
		out[i] = s + maxDistAxis(p2, lo2[i], hi2[i])
	}
}

func maxDistSq4(p Point, lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3, out []float64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	lo0, hi0 = lo0[:len(out)], hi0[:len(out)]
	lo1, hi1 = lo1[:len(out)], hi1[:len(out)]
	lo2, hi2 = lo2[:len(out)], hi2[:len(out)]
	lo3, hi3 = lo3[:len(out)], hi3[:len(out)]
	for i := range out {
		s := maxDistAxis(p0, lo0[i], hi0[i]) + maxDistAxis(p1, lo1[i], hi1[i])
		s += maxDistAxis(p2, lo2[i], hi2[i])
		out[i] = s + maxDistAxis(p3, lo3[i], hi3[i])
	}
}

func maxDistSqGeneric(p Point, r *RectSoA, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for a, pa := range p {
		lo, hi := r.Lo[a][:len(out)], r.Hi[a][:len(out)]
		for i := range out {
			out[i] += maxDistAxis(pa, lo[i], hi[i])
		}
	}
}

// centerDistBatch fills out[i] with |p - center_i| (the plain Euclidean
// distance to each sphere center), accumulating squared axis offsets in
// axis order and taking one square root — bit-identical to
// Point.Dist(p) called on each center.
func centerDistBatch(p Point, s *SphereSoA, out []float64) {
	n := s.Len()
	for i := range out[:n] {
		out[i] = 0
	}
	for a, pa := range p {
		c := s.Center[a][:n]
		for i, ci := range c {
			d := ci - pa
			out[i] += d * d
		}
	}
	for i := range out[:n] {
		out[i] = math.Sqrt(out[i])
	}
}

// SphereMinDistSqBatch computes out[i] = Sphere_i.MinDistSq(p): the
// squared distance from p to the nearest point of each sphere, zero
// inside. out must hold at least s.Len() values.
func SphereMinDistSqBatch(p Point, s *SphereSoA, out []float64) {
	n := s.Len()
	if n == 0 {
		return
	}
	checkBatch(p, s.Dim(), n, out)
	centerDistBatch(p, s, out[:n])
	for i, r := range s.Radius[:n] {
		d := out[i] - r
		if d <= 0 {
			out[i] = 0
		} else {
			out[i] = d * d
		}
	}
}

// SphereMaxDistSqBatch computes out[i] = Sphere_i.MaxDistSq(p): the
// squared distance from p to the farthest point of each sphere. out
// must hold at least s.Len() values.
func SphereMaxDistSqBatch(p Point, s *SphereSoA, out []float64) {
	n := s.Len()
	if n == 0 {
		return
	}
	checkBatch(p, s.Dim(), n, out)
	centerDistBatch(p, s, out[:n])
	for i, r := range s.Radius[:n] {
		d := out[i] + r
		out[i] = d * d
	}
}

// SphereRectMinBatch computes the SR-tree intersected lower bound for
// every entry: out[i] = max(MinDistSq(p, r_i), Sphere_i.MinDistSq(p)),
// bit-identical to SphereRectMin per entry. s may be nil (plain R*-tree
// nodes), in which case the result is the rectangle bound alone.
// scratch must hold at least r.Len() values when s is non-nil; it is
// clobbered.
func SphereRectMinBatch(p Point, r *RectSoA, s *SphereSoA, out, scratch []float64) {
	MinDistSqBatch(p, r, out)
	if s == nil {
		return
	}
	n := r.Len()
	SphereMinDistSqBatch(p, s, scratch[:n])
	for i, sm := range scratch[:n] {
		if sm > out[i] {
			out[i] = sm
		}
	}
}
