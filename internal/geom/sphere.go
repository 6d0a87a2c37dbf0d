package geom

// Sphere is a bounding hyper-sphere: the region descriptor added to
// directory entries by the SR-tree (Katayama & Satoh, SIGMOD 1997), one
// of the access methods the paper lists as supported "with some
// modifications". A sphere with a nil Center is absent.
type Sphere struct {
	Center Point
	Radius float64
}

// Valid reports whether the sphere is present.
func (s Sphere) Valid() bool { return s.Center != nil }

// Contains reports whether p lies inside the sphere (with tolerance eps
// for accumulated floating-point error in maintained radii).
func (s Sphere) Contains(p Point, eps float64) bool {
	return s.Center.Dist(p) <= s.Radius+eps
}

// MinDistSq returns the squared minimum distance from p to the sphere:
// max(0, |p-c| - r)². Zero when p is inside.
func (s Sphere) MinDistSq(p Point) float64 {
	d := s.Center.Dist(p) - s.Radius
	if d <= 0 {
		return 0
	}
	return d * d
}

// MaxDistSq returns the squared maximum distance from p to any point of
// the sphere: (|p-c| + r)².
func (s Sphere) MaxDistSq(p Point) float64 {
	d := s.Center.Dist(p) + s.Radius
	return d * d
}

// WeightedCentroid returns the weighted mean of the given centers — the
// SR-tree keeps each directory sphere centered at the centroid of the
// points below it, which the per-entry object counts make maintainable
// without touching the data.
func WeightedCentroid(centers []Point, weights []int) Point {
	if len(centers) == 0 {
		return nil
	}
	dim := len(centers[0])
	c := make(Point, dim)
	total := 0
	for i, p := range centers {
		w := weights[i]
		total += w
		for d := 0; d < dim; d++ {
			c[d] += p[d] * float64(w)
		}
	}
	if total == 0 {
		return centers[0].Clone()
	}
	for d := 0; d < dim; d++ {
		c[d] /= float64(total)
	}
	return c
}

// CoveringRadius returns the smallest radius around center that covers
// every input sphere: max_i (|center - c_i| + r_i).
func CoveringRadius(center Point, spheres []Sphere) float64 {
	var r float64
	for _, s := range spheres {
		if !s.Valid() {
			continue
		}
		if v := center.Dist(s.Center) + s.Radius; v > r {
			r = v
		}
	}
	return r
}

// SphereEps is the tolerance used when verifying maintained spheres in
// invariant checks (radii accumulate floating-point error through
// centroid updates).
const SphereEps = 1e-9
