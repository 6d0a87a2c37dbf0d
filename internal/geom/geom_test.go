package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := p.DistSq(q); got != 25 {
		t.Errorf("DistSq = %g, want 25", got)
	}
	if got := p.Dist(p); got != 0 {
		t.Errorf("Dist(p,p) = %g, want 0", got)
	}
}

func TestPointDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Point{1}.DistSq(Point{1, 2})
}

func TestPointCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if !p.Equal(Point{1, 2, 3}) {
		t.Error("original mutated")
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 2}, Point{1, 2}, true},
		{Point{1, 2}, Point{2, 1}, false},
		{Point{1}, Point{1, 2}, false},
		{Point{}, Point{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNewRectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inverted rect")
		}
	}()
	NewRect(Point{1, 1}, Point{0, 2})
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 3})
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %g, want 6", got)
	}
	if got := r.Margin(); got != 5 {
		t.Errorf("Margin = %g, want 5", got)
	}
	if c := r.Center(); !c.Equal(Point{1, 1.5}) {
		t.Errorf("Center = %v", c)
	}
}

func TestRectUnion(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1})
	b := NewRect(Point{2, -1}, Point{3, 0.5})
	u := a.Union(b)
	want := NewRect(Point{0, -1}, Point{3, 1})
	if !u.Equal(want) {
		t.Errorf("Union = %v, want %v", u, want)
	}
	// Union must not alias the inputs.
	u.Lo[0] = -50
	if a.Lo[0] != 0 || b.Lo[0] != 2 {
		t.Error("Union aliases input arrays")
	}
}

func TestRectUnionInPlace(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1}).Clone()
	a.UnionInPlace(NewRect(Point{-1, 0.5}, Point{0.5, 4}))
	want := NewRect(Point{-1, 0}, Point{1, 4})
	if !a.Equal(want) {
		t.Errorf("UnionInPlace = %v, want %v", a, want)
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	cases := []struct {
		b    Rect
		want bool
	}{
		{NewRect(Point{1, 1}, Point{3, 3}), true},
		{NewRect(Point{2, 2}, Point{3, 3}), true}, // touching corner
		{NewRect(Point{3, 3}, Point{4, 4}), false},
		{NewRect(Point{0.5, 0.5}, Point{1, 1}), true}, // contained
		{NewRect(Point{-1, 0}, Point{3, 0.5}), true},  // crossing band
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestRectOverlapArea(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	b := NewRect(Point{1, 1}, Point{3, 3})
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %g, want 1", got)
	}
	c := NewRect(Point{5, 5}, Point{6, 6})
	if got := a.OverlapArea(c); got != 0 {
		t.Errorf("disjoint OverlapArea = %g, want 0", got)
	}
	// Touching boundary has zero overlap volume.
	d := NewRect(Point{2, 0}, Point{3, 2})
	if got := a.OverlapArea(d); got != 0 {
		t.Errorf("touching OverlapArea = %g, want 0", got)
	}
}

func TestRectContains(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{4, 4})
	if !a.Contains(NewRect(Point{1, 1}, Point{2, 2})) {
		t.Error("inner rect not contained")
	}
	if !a.Contains(a) {
		t.Error("rect must contain itself")
	}
	if a.Contains(NewRect(Point{1, 1}, Point{5, 2})) {
		t.Error("overflowing rect reported contained")
	}
	if !a.Contains(PointRect(Point{0, 4})) {
		t.Error("boundary point not contained")
	}
	if a.Contains(PointRect(Point{-0.1, 2})) {
		t.Error("outside point contained")
	}
}

func TestMinDistKnownValues(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{3, 2})
	cases := []struct {
		p    Point
		want float64 // squared
	}{
		{Point{2, 1.5}, 0},  // inside
		{Point{1, 1}, 0},    // corner
		{Point{0, 1.5}, 1},  // left of rect
		{Point{4, 3}, 2},    // beyond top-right corner: 1² + 1²
		{Point{2, -1}, 4},   // below
		{Point{-2, -3}, 25}, // 3² + 4²
	}
	for i, c := range cases {
		if got := MinDistSq(c.p, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MinDistSq(%v) = %g, want %g", i, c.p, got, c.want)
		}
	}
}

func TestMinMaxDistKnownValues(t *testing.T) {
	// Unit square [0,1]². From the origin corner, Dmm picks the nearest
	// face coordinate on one axis and farthest on the others:
	// min( |0-0|²+|0-1|², |0-1|²+|0-0|² ) = 1.
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := MinMaxDistSq(Point{0, 0}, r); math.Abs(got-1) > 1e-12 {
		t.Errorf("Dmm² from corner = %g, want 1", got)
	}
	// From the center, rm = lo on each axis (p == mid picks lo), rM = lo
	// too (p >= mid picks lo): each axis contributes 0.25.
	// min over k of (0.25 + 0.25) = 0.5.
	if got := MinMaxDistSq(Point{0.5, 0.5}, r); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Dmm² from center = %g, want 0.5", got)
	}
	// 1-d: interval [2,4], p=0. rm=2, rM=4 → min over the single axis of
	// |0-2|² = 4.
	r1 := NewRect(Point{2}, Point{4})
	if got := MinMaxDistSq(Point{0}, r1); math.Abs(got-4) > 1e-12 {
		t.Errorf("1-d Dmm² = %g, want 4", got)
	}
}

func TestMaxDistKnownValues(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{3, 2})
	cases := []struct {
		p    Point
		want float64 // squared
	}{
		{Point{0, 0}, 13},     // farthest vertex (3,2): 9+4
		{Point{2, 1.5}, 1.25}, // inside: farthest vertex any corner: 1+0.25
		{Point{4, 3}, 13},     // farthest vertex (1,1): 9+4
	}
	for i, c := range cases {
		if got := MaxDistSq(c.p, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MaxDistSq(%v) = %g, want %g", i, c.p, got, c.want)
		}
	}
}

// randRect builds a random rectangle and point of the same dimension from
// a seed, for property tests.
func randPointRect(rnd *rand.Rand, dim int) (Point, Rect) {
	p := make(Point, dim)
	lo := make(Point, dim)
	hi := make(Point, dim)
	for i := 0; i < dim; i++ {
		p[i] = rnd.Float64()*20 - 10
		a := rnd.Float64()*20 - 10
		b := rnd.Float64()*20 - 10
		lo[i] = math.Min(a, b)
		hi[i] = math.Max(a, b)
	}
	return p, Rect{Lo: lo, Hi: hi}
}

// Property: Dmin <= Dmm <= Dmax for every point/rect pair.
func TestMetricOrderingProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%9 + 1
		rnd := rand.New(rand.NewSource(seed))
		p, r := randPointRect(rnd, dim)
		dmin := MinDistSq(p, r)
		dmm := MinMaxDistSq(p, r)
		dmax := MaxDistSq(p, r)
		const eps = 1e-9
		return dmin <= dmm+eps && dmm <= dmax+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Dmin to any point inside the rect is an actual lower bound,
// and Dmax an actual upper bound.
func TestMinMaxBoundProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%9 + 1
		rnd := rand.New(rand.NewSource(seed))
		p, r := randPointRect(rnd, dim)
		// random point inside r
		q := make(Point, dim)
		for i := 0; i < dim; i++ {
			q[i] = r.Lo[i] + rnd.Float64()*(r.Hi[i]-r.Lo[i])
		}
		d := p.DistSq(q)
		const eps = 1e-9
		return MinDistSq(p, r) <= d+eps && d <= MaxDistSq(p, r)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Dmm is achieved by some vertex-adjacent face point: there is
// always a point of the rectangle's boundary within Dmm. We verify the
// weaker (but sufficient for pruning) guarantee that Dmm >= Dmin and that
// for point rectangles all three metrics coincide.
func TestDegenerateRectMetricsCoincide(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%9 + 1
		rnd := rand.New(rand.NewSource(seed))
		p, _ := randPointRect(rnd, dim)
		q, _ := randPointRect(rnd, dim)
		r := PointRect(q)
		d := p.DistSq(q)
		const eps = 1e-9
		return math.Abs(MinDistSq(p, r)-d) < eps &&
			math.Abs(MinMaxDistSq(p, r)-d) < eps &&
			math.Abs(MaxDistSq(p, r)-d) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: union contains both inputs and is the smallest such box
// (each face touches one of the inputs).
func TestUnionProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%9 + 1
		rnd := rand.New(rand.NewSource(seed))
		_, a := randPointRect(rnd, dim)
		_, b := randPointRect(rnd, dim)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		for i := 0; i < dim; i++ {
			if u.Lo[i] != a.Lo[i] && u.Lo[i] != b.Lo[i] {
				return false
			}
			if u.Hi[i] != a.Hi[i] && u.Hi[i] != b.Hi[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: overlap area is symmetric and bounded by each input's area.
func TestOverlapProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%9 + 1
		rnd := rand.New(rand.NewSource(seed))
		_, a := randPointRect(rnd, dim)
		_, b := randPointRect(rnd, dim)
		ov := a.OverlapArea(b)
		if math.Abs(ov-b.OverlapArea(a)) > 1e-9 {
			return false
		}
		return ov <= a.Area()+1e-9 && ov <= b.Area()+1e-9 && ov >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSphereIntersects pins the sphere/rectangle predicates in the
// squared form the searches write them: the sphere of squared radius ρ
// around p meets r iff Dmin²(p, r) ≤ ρ (Definition 6; rtree.SearchSphere
// prunes on Dmin² > ε²) and encloses it iff Dmax²(p, r) ≤ ρ. A touching
// sphere meets the rectangle; one a hair short does not.
func TestSphereIntersects(t *testing.T) {
	r := NewRect(Point{2, 0}, Point{3, 1})
	p := Point{0, 0}
	if d := MinDistSq(p, r); !(d <= 4.0) || d <= 3.9 { // Dmin² = 4
		t.Errorf("Dmin² = %g: a sphere of radius² 4 touches r, 3.9 falls short", d)
	}
	if d := MaxDistSq(p, r); !(d <= 10.0) || d <= 9.9 { // Dmax² = 9+1 = 10
		t.Errorf("Dmax² = %g: a sphere of radius² 10 encloses r, 9.9 does not", d)
	}
}

func TestStringFormatting(t *testing.T) {
	p := Point{1, 2.5}
	if got := p.String(); got != "(1, 2.5)" {
		t.Errorf("Point.String = %q", got)
	}
	r := NewRect(Point{0}, Point{1})
	if got := r.String(); got != "[(0) .. (1)]" {
		t.Errorf("Rect.String = %q", got)
	}
}
