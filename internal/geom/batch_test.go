package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// bitEq reports bit-level equality of two floats with all NaNs
// identified: NaN == NaN regardless of payload, +0 != -0. IEEE 754
// leaves NaN payload propagation to the hardware (register operand
// order picks the surviving payload on x86), so payloads are the one
// place the batch and scalar kernels may differ bitwise; everything
// else must match exactly.
func bitEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// buildSoA packs the given rectangles into a RectSoA view.
func buildSoA(rects []Rect) RectSoA {
	if len(rects) == 0 {
		return RectSoA{}
	}
	dim := rects[0].Dim()
	s := MakeRectSoA(dim, len(rects))
	for i, r := range rects {
		for a := 0; a < dim; a++ {
			s.Lo[a][i] = r.Lo[a]
			s.Hi[a][i] = r.Hi[a]
		}
	}
	return s
}

// buildSphereSoA packs the given spheres into a SphereSoA view. All
// spheres must be valid and share one dimensionality.
func buildSphereSoA(spheres []Sphere) SphereSoA {
	if len(spheres) == 0 {
		return SphereSoA{}
	}
	dim := spheres[0].Center.Dim()
	s := MakeSphereSoA(dim, len(spheres))
	for i, sp := range spheres {
		for a := 0; a < dim; a++ {
			s.Center[a][i] = sp.Center[a]
		}
		s.Radius[i] = sp.Radius
	}
	return s
}

// checkRectParity asserts every batch rect kernel agrees bit-for-bit
// with its scalar counterpart on the given query point and batch.
func checkRectParity(t *testing.T, p Point, rects []Rect) {
	t.Helper()
	soa := buildSoA(rects)
	n := len(rects)
	got := make([]float64, n)

	MinDistSqBatch(p, &soa, got)
	for i, r := range rects {
		if want := MinDistSq(p, r); !bitEq(got[i], want) {
			t.Fatalf("MinDistSqBatch[%d] = %x, scalar %x (p=%v r=%v)",
				i, math.Float64bits(got[i]), math.Float64bits(want), p, r)
		}
	}
	MinMaxDistSqBatch(p, &soa, got)
	for i, r := range rects {
		if want := MinMaxDistSq(p, r); !bitEq(got[i], want) {
			t.Fatalf("MinMaxDistSqBatch[%d] = %x, scalar %x (p=%v r=%v)",
				i, math.Float64bits(got[i]), math.Float64bits(want), p, r)
		}
	}
	MaxDistSqBatch(p, &soa, got)
	for i, r := range rects {
		if want := MaxDistSq(p, r); !bitEq(got[i], want) {
			t.Fatalf("MaxDistSqBatch[%d] = %x, scalar %x (p=%v r=%v)",
				i, math.Float64bits(got[i]), math.Float64bits(want), p, r)
		}
	}
}

// checkSphereParity asserts the sphere batch kernels agree bit-for-bit
// with the scalar Sphere methods and with SphereRectMin.
func checkSphereParity(t *testing.T, p Point, rects []Rect, spheres []Sphere) {
	t.Helper()
	rsoa := buildSoA(rects)
	ssoa := buildSphereSoA(spheres)
	n := len(spheres)
	got := make([]float64, n)
	scratch := make([]float64, n)

	SphereMinDistSqBatch(p, &ssoa, got)
	for i, s := range spheres {
		if want := s.MinDistSq(p); !bitEq(got[i], want) {
			t.Fatalf("SphereMinDistSqBatch[%d] = %x, scalar %x (p=%v s=%+v)",
				i, math.Float64bits(got[i]), math.Float64bits(want), p, s)
		}
	}
	SphereMaxDistSqBatch(p, &ssoa, got)
	for i, s := range spheres {
		if want := s.MaxDistSq(p); !bitEq(got[i], want) {
			t.Fatalf("SphereMaxDistSqBatch[%d] = %x, scalar %x (p=%v s=%+v)",
				i, math.Float64bits(got[i]), math.Float64bits(want), p, s)
		}
	}
	SphereRectMinBatch(p, &rsoa, &ssoa, got, scratch)
	for i := range spheres {
		if want := SphereRectMin(p, rects[i], spheres[i]); !bitEq(got[i], want) {
			t.Fatalf("SphereRectMinBatch[%d] = %x, scalar %x", i,
				math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	// Nil sphere view: the combined bounds degrade to the rect bounds.
	SphereRectMinBatch(p, &rsoa, nil, got, nil)
	for i, r := range rects {
		if want := MinDistSq(p, r); !bitEq(got[i], want) {
			t.Fatalf("SphereRectMinBatch(nil)[%d] = %x, rect bound %x", i,
				math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// randCoord draws a coordinate from a mix of magnitudes, with occasional
// special values — the batch kernels must track the scalar kernels
// bit-for-bit even on NaN and ±Inf inputs.
func randCoord(rng *rand.Rand) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return 0
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return rng.NormFloat64() * 1e150
	case 5:
		return rng.NormFloat64() * 1e-150
	default:
		return rng.NormFloat64() * 100
	}
}

func randRect(rng *rand.Rand, dim int) Rect {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for a := 0; a < dim; a++ {
		x, y := randCoord(rng), randCoord(rng)
		if x > y {
			x, y = y, x
		}
		lo[a], hi[a] = x, y
	}
	return Rect{Lo: lo, Hi: hi}
}

func randPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for a := range p {
		p[a] = randCoord(rng)
	}
	return p
}

// TestBatchScalarParityRandom exercises every dimension specialization
// (d=2..4) and the generic fallback (d=1, 5..8) across batch sizes from
// empty to node-sized, on coordinates spanning normal, tiny, huge,
// signed-zero, Inf and NaN values.
func TestBatchScalarParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for dim := 1; dim <= 8; dim++ {
		for _, n := range []int{0, 1, 2, 7, 33, 128} {
			for trial := 0; trial < 25; trial++ {
				p := randPoint(rng, dim)
				rects := make([]Rect, n)
				spheres := make([]Sphere, n)
				for i := range rects {
					rects[i] = randRect(rng, dim)
					spheres[i] = Sphere{Center: randPoint(rng, dim), Radius: math.Abs(rng.NormFloat64() * 10)}
				}
				checkRectParity(t, p, rects)
				checkSphereParity(t, p, rects, spheres)
			}
		}
	}
}

// TestBatchScalarParityFuzzCorpus replays every committed FuzzGeomMetrics
// corpus entry — including the MinMaxDistSq absorption-bug reproducer —
// through the batch kernels and asserts bit-identity with the scalar
// results. The corpus entries were minimized against real invariant
// violations, so they concentrate on the numerically nastiest inputs.
func TestBatchScalarParityFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzGeomMetrics")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	cases := 0
	for _, f := range files {
		data, dimByte, ok := readCorpusEntry(t, filepath.Join(dir, f.Name()))
		if !ok {
			continue
		}
		p, r, valid := decodeMetricInput(data, dimByte)
		if !valid {
			continue
		}
		cases++
		// A batch holding the corpus rect alone, and a batch mixing it
		// with neighbors (so specializations see it at several lanes).
		checkRectParity(t, p, []Rect{r})
		mixed := []Rect{r, PointRect(p), r, r.Union(PointRect(p)), r}
		checkRectParity(t, p, mixed)
	}
	if cases == 0 {
		t.Fatal("no corpus entry decoded to an in-domain input")
	}
}

// readCorpusEntry parses one Go fuzz corpus file ("go test fuzz v1"
// format) with the FuzzGeomMetrics signature ([]byte, byte).
func readCorpusEntry(t *testing.T, path string) (data []byte, dimByte byte, ok bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, 0, false
	}
	var haveData, haveByte bool
	for _, ln := range lines[1:] {
		ln = strings.TrimSpace(ln)
		switch {
		case strings.HasPrefix(ln, "[]byte("):
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(ln, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: bad []byte literal %q: %v", path, ln, err)
			}
			data, haveData = []byte(s), true
		case strings.HasPrefix(ln, "byte("):
			inner := strings.TrimSuffix(strings.TrimPrefix(ln, "byte("), ")")
			if strings.HasPrefix(inner, "'") {
				v, _, _, err := strconv.UnquoteChar(strings.Trim(inner, "'"), '\'')
				if err != nil {
					t.Fatalf("%s: bad byte literal %q: %v", path, ln, err)
				}
				dimByte = byte(v)
			} else {
				v, err := strconv.ParseUint(inner, 0, 8)
				if err != nil {
					t.Fatalf("%s: bad byte literal %q: %v", path, ln, err)
				}
				dimByte = byte(v)
			}
			haveByte = true
		}
	}
	return data, dimByte, haveData && haveByte
}

// decodeMetricInput mirrors FuzzGeomMetrics' input decoding: same
// dimension derivation, same float extraction, same domain filter, same
// corner swap.
func decodeMetricInput(data []byte, dimByte byte) (Point, Rect, bool) {
	dim := 1 + int(dimByte)%6
	vals := make([]float64, 0, 3*dim+1)
	for i := 0; i+8 <= len(data) && len(vals) < 3*dim+1; i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
			return nil, Rect{}, false
		}
		vals = append(vals, v)
	}
	if len(vals) < 3*dim+1 {
		return nil, Rect{}, false
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
	return p, Rect{Lo: lo, Hi: hi}, true
}

// TestMakeRectSoAShape checks the SoA constructors produce the promised
// shapes and that the gather accessor round-trips.
func TestMakeRectSoAShape(t *testing.T) {
	s := MakeRectSoA(3, 5)
	if s.Dim() != 3 || s.Len() != 5 {
		t.Fatalf("dim=%d len=%d", s.Dim(), s.Len())
	}
	r := NewRect(Point{1, 2, 3}, Point{4, 5, 6})
	for a := 0; a < 3; a++ {
		s.Lo[a][2] = r.Lo[a]
		s.Hi[a][2] = r.Hi[a]
	}
	if got := s.Rect(2); !got.Equal(r) {
		t.Fatalf("Rect(2) = %v, want %v", got, r)
	}
	sp := MakeSphereSoA(3, 5)
	if sp.Dim() != 3 || sp.Len() != 5 {
		t.Fatalf("sphere dim=%d len=%d", sp.Dim(), sp.Len())
	}
	empty := RectSoA{}
	if empty.Len() != 0 {
		t.Fatalf("empty Len = %d", empty.Len())
	}
}

// TestBatchDimensionMismatchPanics pins the shape-validation behavior.
func TestBatchDimensionMismatchPanics(t *testing.T) {
	s := MakeRectSoA(2, 3)
	out := make([]float64, 3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("dim", func() { MinDistSqBatch(Point{1, 2, 3}, &s, out) })
	mustPanic("out", func() { MinDistSqBatch(Point{1, 2}, &s, out[:1]) })
}
