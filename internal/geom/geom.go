// Package geom provides n-dimensional points, rectangles (MBRs) and the
// point-to-rectangle distance metrics used by similarity search over
// R-trees: MINDIST (Dmin), MINMAXDIST (Dmm) and MAXDIST (Dmax), following
// Roussopoulos, Kelley & Vincent (SIGMOD 1995) and Papadopoulos &
// Manolopoulos (SIGMOD 1998, Definitions 3-5).
//
// All distance functions come in squared form (suffix Sq). Similarity
// search only ever compares distances, so the library works in squared
// space and takes a single square root when reporting results.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in n-dimensional Euclidean space. The slice length is
// the dimensionality. Points are treated as immutable by this package.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// DistSq returns the squared Euclidean distance between p and q.
// It panics if the dimensionalities differ.
func (p Point) DistSq(q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.DistSq(q)) }

// String renders the point as "(x1, x2, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-aligned hyper-rectangle given by its lower-left corner
// Lo and upper-right corner Hi. A degenerate rectangle with Lo == Hi
// represents a point object. Invariant: Lo[i] <= Hi[i] for all i.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle spanning lo..hi. It panics if the corners
// have different dimensionality or are inverted in any axis.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimension mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted rect on axis %d: %g > %g", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect { return Rect{Lo: p, Hi: p} }

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// Equal reports whether r and s cover the identical region.
func (r Rect) Equal(s Rect) bool { return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi) }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Area returns the n-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of the rectangle (the
// "margin" minimized by the R*-tree split heuristic).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	out := Rect{Lo: make(Point, len(r.Lo)), Hi: make(Point, len(r.Hi))}
	r.UnionInto(s, out)
	return out
}

// UnionInto is Union into a rectangle the caller owns: it overwrites
// dst's coordinates, which must have r's dimensionality.
func (r Rect) UnionInto(s, dst Rect) {
	for i := range r.Lo {
		dst.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		dst.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
}

// UnionInPlace grows r to enclose s, reusing r's backing arrays.
func (r *Rect) UnionInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count as intersection).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection of r and s
// (zero when they do not intersect).
func (r Rect) OverlapArea(s Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Contains reports whether r fully encloses s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as "[lo .. hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s .. %s]", r.Lo, r.Hi)
}

// MinDistSq returns Dmin²(p, r): the squared minimum Euclidean distance
// from point p to rectangle r (Definition 3). It is zero when p lies
// inside r. Dmin is the optimistic bound — no object inside r can be
// closer to p than Dmin.
func MinDistSq(p Point, r Rect) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MinMaxDistSq returns Dmm²(p, r), the squared MINMAXDIST (Definition 4):
// the minimum over all faces of r of the maximum distance from p to that
// face. It is the pessimistic bound — r is guaranteed to contain at least
// one object (assuming every face of an MBR touches an object) within
// distance Dmm of p.
//
// Dmm²(p,r) = min over axes k of ( |p_k - rm_k|² + Σ_{j≠k} |p_j - rM_j|² )
// where rm_k is the nearer corner coordinate on axis k and rM_j the
// farther corner coordinate on axis j.
func MinMaxDistSq(p Point, r Rect) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	far := make([]float64, n)  // |p_j - rM_j|²
	near := make([]float64, n) // |p_k - rm_k|²
	for j := 0; j < n; j++ {
		mid := (r.Lo[j] + r.Hi[j]) / 2
		var rm, rM float64
		if p[j] <= mid {
			rm = r.Lo[j]
		} else {
			rm = r.Hi[j]
		}
		if p[j] >= mid {
			rM = r.Lo[j]
		} else {
			rM = r.Hi[j]
		}
		dn := p[j] - rm
		df := p[j] - rM
		near[j] = dn * dn
		far[j] = df * df
	}
	// Each candidate is summed from scratch rather than as
	// total - far[k] + near[k]: the subtraction form loses tiny terms to
	// absorption and can return a Dmm below Dmin, breaking the
	// pessimistic-bound guarantee the pruning rules rely on. Summing
	// nonnegative terms in fixed axis order keeps Dmin ≤ Dmm ≤ Dmax
	// exact in floating point, because each Dmm term dominates the
	// matching Dmin term and is dominated by the matching Dmax term.
	best := math.Inf(1)
	for k := 0; k < n; k++ {
		var v float64
		for j := 0; j < n; j++ {
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
	return best
}

// MaxDistSq returns Dmax²(p, r) (Definition 5): the squared distance from
// p to the farthest vertex of r. Every object inside r lies within Dmax
// of p, so Dmax upper-bounds the distance to anything in the subtree.
func MaxDistSq(p Point, r Rect) float64 {
	var s float64
	for i := range p {
		dLo := p[i] - r.Lo[i]
		dHi := p[i] - r.Hi[i]
		d := math.Max(math.Abs(dLo), math.Abs(dHi))
		s += d * d
	}
	return s
}
