package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSphereValid(t *testing.T) {
	if (Sphere{}).Valid() {
		t.Error("zero sphere valid")
	}
	if !(Sphere{Center: Point{0}, Radius: 0}).Valid() {
		t.Error("point sphere invalid")
	}
}

func TestSphereDistances(t *testing.T) {
	s := Sphere{Center: Point{0, 0}, Radius: 2}
	if got := s.MinDistSq(Point{5, 0}); got != 9 {
		t.Errorf("MinDistSq = %g, want 9", got)
	}
	if got := s.MinDistSq(Point{1, 0}); got != 0 {
		t.Errorf("inside MinDistSq = %g, want 0", got)
	}
	if got := s.MaxDistSq(Point{5, 0}); got != 49 {
		t.Errorf("MaxDistSq = %g, want 49", got)
	}
	if !s.Contains(Point{0, 2}, 0) {
		t.Error("boundary point not contained")
	}
	if s.Contains(Point{0, 2.1}, 0) {
		t.Error("outside point contained")
	}
}

func TestSphereUnionKnown(t *testing.T) {
	a := Sphere{Center: Point{0, 0}, Radius: 1}
	b := Sphere{Center: Point{4, 0}, Radius: 1}
	u := a.Union(b)
	if math.Abs(u.Radius-3) > 1e-12 {
		t.Errorf("union radius = %g, want 3", u.Radius)
	}
	if !u.Center.Equal(Point{2, 0}) {
		t.Errorf("union center = %v", u.Center)
	}
	// Containment cases.
	inner := Sphere{Center: Point{0.5, 0}, Radius: 0.1}
	if u2 := a.Union(inner); u2.Radius != 1 || !u2.Center.Equal(a.Center) {
		t.Errorf("union with contained sphere changed: %+v", u2)
	}
	if u3 := inner.Union(a); u3.Radius != 1 {
		t.Errorf("reverse containment union radius = %g", u3.Radius)
	}
	// Union with invalid spheres.
	if u4 := (Sphere{}).Union(a); !u4.Center.Equal(a.Center) {
		t.Error("union with invalid lost sphere")
	}
}

// Property: the union sphere contains both input spheres.
func TestSphereUnionContainsProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw)%5 + 1
		rnd := rand.New(rand.NewSource(seed))
		mk := func() Sphere {
			c := make(Point, dim)
			for d := range c {
				c[d] = rnd.Float64()*10 - 5
			}
			return Sphere{Center: c, Radius: rnd.Float64() * 3}
		}
		a, b := mk(), mk()
		u := a.Union(b)
		const eps = 1e-9
		return u.Center.Dist(a.Center)+a.Radius <= u.Radius+eps &&
			u.Center.Dist(b.Center)+b.Radius <= u.Radius+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedCentroid(t *testing.T) {
	c := WeightedCentroid([]Point{{0, 0}, {4, 0}}, []int{1, 3})
	if !c.Equal(Point{3, 0}) {
		t.Errorf("centroid = %v, want (3,0)", c)
	}
	if WeightedCentroid(nil, nil) != nil {
		t.Error("empty centroid not nil")
	}
	// Zero total weight falls back to the first center.
	c = WeightedCentroid([]Point{{1, 2}}, []int{0})
	if !c.Equal(Point{1, 2}) {
		t.Errorf("zero-weight centroid = %v", c)
	}
}

func TestCoveringRadius(t *testing.T) {
	center := Point{0, 0}
	spheres := []Sphere{
		{Center: Point{3, 0}, Radius: 1},
		{Center: Point{0, 1}, Radius: 0.5},
		{}, // invalid, skipped
	}
	if got := CoveringRadius(center, spheres); got != 4 {
		t.Errorf("CoveringRadius = %g, want 4", got)
	}
	if CoveringRadius(center, nil) != 0 {
		t.Error("empty covering radius != 0")
	}
}

// Property: covering radius actually covers every sphere.
func TestCoveringRadiusProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := rnd.Intn(10) + 1
		spheres := make([]Sphere, n)
		for i := range spheres {
			spheres[i] = Sphere{
				Center: Point{rnd.Float64() * 10, rnd.Float64() * 10},
				Radius: rnd.Float64() * 2,
			}
		}
		center := Point{rnd.Float64() * 10, rnd.Float64() * 10}
		r := CoveringRadius(center, spheres)
		for _, s := range spheres {
			if center.Dist(s.Center)+s.Radius > r+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: intersected SR bounds are at least as tight as either
// descriptor alone and still bracket real point distances.
func TestSphereRectBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		dim := rnd.Intn(4) + 2
		// A cloud of points defines both descriptors exactly.
		n := rnd.Intn(20) + 2
		pts := make([]Point, n)
		lo := make(Point, dim)
		hi := make(Point, dim)
		for i := range pts {
			p := make(Point, dim)
			for d := 0; d < dim; d++ {
				p[d] = rnd.Float64() * 10
				if i == 0 || p[d] < lo[d] {
					lo[d] = p[d]
				}
				if i == 0 || p[d] > hi[d] {
					hi[d] = p[d]
				}
			}
			pts[i] = p
		}
		r := Rect{Lo: lo, Hi: hi}
		centers := make([]Point, n)
		w := make([]int, n)
		for i := range pts {
			centers[i], w[i] = pts[i], 1
		}
		c := WeightedCentroid(centers, w)
		var rad float64
		for _, p := range pts {
			if d := c.Dist(p); d > rad {
				rad = d
			}
		}
		s := Sphere{Center: c, Radius: rad}

		q := make(Point, dim)
		for d := 0; d < dim; d++ {
			q[d] = rnd.Float64()*30 - 10
		}
		minB := SphereRectMin(q, r, s)
		maxB := min(MaxDistSq(q, r), s.MaxDistSq(q)) // the candidate's Dmax² (query.MakeCandidates)
		const eps = 1e-9
		if minB < MinDistSq(q, r)-eps || minB < s.MinDistSq(q)-eps {
			return false // not the tighter lower bound
		}
		if maxB > MaxDistSq(q, r)+eps || maxB > s.MaxDistSq(q)+eps {
			return false // not the tighter upper bound
		}
		for _, p := range pts {
			d := q.DistSq(p)
			if d < minB-eps || d > maxB+eps {
				return false // bounds must bracket every real point
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
