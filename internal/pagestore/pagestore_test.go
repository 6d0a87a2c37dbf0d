package pagestore

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestCodecCapacityMatchesRtree pins the fanout the on-page layout
// gives a 4 KiB page: a 16-byte header, then per entry 2·dim float64
// corners, an 8-byte reference and a 4-byte count, plus a dim-float64
// center and a float64 radius in the SR-tree layout. The trees derive
// their node capacity from it (parallel.Config), so these numbers are
// the paper's fanouts, and a full rtree node of that many entries must
// encode into one page while one entry more must not.
func TestCodecCapacityMatchesRtree(t *testing.T) {
	for _, c := range []struct {
		dim     int
		spheres bool
		want    int
	}{
		{2, false, 92},  // (4096-16)/(32+12)
		{10, false, 23}, // (4096-16)/(160+12)
		{2, true, 60},   // (4096-16)/(44+24)
	} {
		if got := (Codec{Dim: c.dim, PageSize: 4096, Spheres: c.spheres}).Capacity(1); got != c.want {
			t.Errorf("dim %d spheres %v: capacity %d, want %d", c.dim, c.spheres, got, c.want)
		}
	}
	// A point leaf: 8·dim float64 coordinates and an 8-byte object id.
	for _, c := range []struct{ dim, want int }{{2, 170}, {8, 56}, {10, 46}} {
		codec := Codec{Dim: c.dim, PageSize: 4096}
		if got := codec.Capacity(0); got != c.want {
			t.Errorf("dim %d: point-leaf capacity %d, want %d", c.dim, got, c.want)
		}
	}
	rnd := rand.New(rand.NewSource(4))
	for _, dim := range []int{2, 3, 5, 10, 16} {
		c := Codec{Dim: dim, PageSize: 4096}
		full := randomNodeFor(rnd, c, c.Capacity(0), true)
		if _, err := c.Encode(full); err != nil {
			t.Errorf("dim %d: full point leaf of %d entries: %v", dim, c.Capacity(0), err)
		}
		full.Entries = append(full.Entries, full.Entries[0])
		if _, err := c.Encode(full); err == nil {
			t.Errorf("dim %d: Encode accepted a point leaf of %d entries", dim, len(full.Entries))
		}
	}
	for _, dim := range []int{2, 3, 5, 10, 16} {
		for _, spheres := range []bool{false, true} {
			c := Codec{Dim: dim, PageSize: 4096, Spheres: spheres}
			full := randomNode(rnd, dim, c.Capacity(1), false)
			if spheres {
				for i := range full.Entries {
					full.Entries[i].Sphere = geom.Sphere{Center: full.Entries[i].Rect.Lo, Radius: 1}
				}
			}
			if _, err := c.Encode(full); err != nil {
				t.Errorf("dim %d spheres %v: full node of %d entries: %v", dim, spheres, c.Capacity(1), err)
			}
			full.Entries = append(full.Entries, full.Entries[0])
			if _, err := c.Encode(full); err == nil {
				t.Errorf("dim %d spheres %v: Encode accepted %d entries", dim, spheres, len(full.Entries))
			}
		}
	}
}

// bothDecoders names the codec's two decoders by what they do to an
// image, for the checks every image must pass or fail on both.
func bothDecoders(c Codec) map[string]func([]byte) error {
	return map[string]func([]byte) error{
		"Decode":     func(img []byte) error { _, err := c.Decode(img); return err },
		"DecodeNode": func(img []byte) error { _, err := c.DecodeNode(img); return err },
	}
}

func randomNode(rnd *rand.Rand, dim, entries int, leaf bool) *rtree.Node {
	n := &rtree.Node{ID: rtree.PageID(1 + rnd.Intn(1<<20)), Level: 0}
	if !leaf {
		n.Level = 1 + rnd.Intn(5)
	}
	for i := 0; i < entries; i++ {
		lo := make(geom.Point, dim)
		hi := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			a, b := rnd.NormFloat64()*100, rnd.NormFloat64()*100
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		e := rtree.Entry{Rect: geom.Rect{Lo: lo, Hi: hi}}
		if leaf {
			e.Object = rtree.ObjectID(rnd.Int63())
			e.Count = 1
		} else {
			e.Child = rtree.PageID(1 + rnd.Intn(1<<20))
			e.Count = rnd.Intn(100000)
		}
		n.Entries = append(n.Entries, e)
	}
	return n
}

// randomNodeFor is randomNode in c's layout: a leaf of a point-leaf
// codec holds points.
func randomNodeFor(rnd *rand.Rand, c Codec, entries int, leaf bool) *rtree.Node {
	n := randomNode(rnd, c.Dim, entries, leaf)
	if c.points(n.Level) {
		for i := range n.Entries {
			n.Entries[i].Rect.Hi = n.Entries[i].Rect.Lo
		}
	}
	return n
}

// Property: DecodeNode(Encode(n)) == n and Decode(Encode(n)) views n,
// for random nodes of all shapes: point leaves and rectangle
// directory pages.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, dimRaw, entRaw uint8, leaf bool) bool {
		rnd := rand.New(rand.NewSource(seed))
		dim := int(dimRaw)%10 + 1
		c := Codec{Dim: dim, PageSize: 4096}
		level := 1
		if leaf {
			level = 0
		}
		entries := int(entRaw) % (c.Capacity(level) + 1)
		n := randomNodeFor(rnd, c, entries, leaf)
		buf, err := c.Encode(n)
		if err != nil {
			return false
		}
		if len(buf) != 4096 {
			return false
		}
		dec, err := c.DecodeNode(buf)
		if err != nil {
			return false
		}
		if dec.ID != n.ID || dec.Level != n.Level || len(dec.Entries) != len(n.Entries) {
			return false
		}
		for i := range n.Entries {
			a, b := n.Entries[i], dec.Entries[i]
			if !a.Rect.Equal(b.Rect) || a.Child != b.Child || a.Object != b.Object || a.Count != b.Count {
				return false
			}
		}
		if c.points(n.Level) && len(dec.Entries) > 0 && &dec.Entries[0].Rect.Lo[0] != &dec.Entries[0].Rect.Hi[0] {
			t.Log("a decoded point is not stored once")
			return false
		}
		view, err := c.Decode(buf)
		if err != nil {
			return false
		}
		if err := viewsNode(view, n); err != nil {
			t.Log(err)
			return false
		}
		if view.Points() != (c.points(n.Level) && entries > 0) {
			t.Logf("view of a level-%d page of %d entries: Points() = %v", n.Level, entries, view.Points())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	// Capacity (256-16)/24 = 10 points in a leaf, (256-16)/44 = 5
	// rectangles in a directory page.
	c := Codec{Dim: 2, PageSize: 256}
	rnd := rand.New(rand.NewSource(1))
	for _, leaf := range []bool{true, false} {
		n := randomNodeFor(rnd, c, 11, leaf)
		if !leaf {
			n = randomNode(rnd, 2, 6, leaf)
		}
		if _, err := c.Encode(n); err == nil {
			t.Errorf("leaf=%v: Encode accepted overflowing node of %d entries", leaf, len(n.Entries))
		}
	}
}

// A point leaf holds points: a rectangle, or an entry whose count is
// not 1, is refused rather than stored as its low corner.
func TestEncodeRejectsRectInPointLeaf(t *testing.T) {
	c := Codec{Dim: 2, PageSize: 4096}
	rnd := rand.New(rand.NewSource(7))
	if _, err := c.Encode(randomNode(rnd, 2, 3, true)); err == nil || !strings.Contains(err.Error(), "no point") {
		t.Errorf("Encode of rectangles into a point leaf: err = %v", err)
	}
	n := randomNodeFor(rnd, c, 3, true)
	n.Entries[1].Count = 2
	if _, err := c.Encode(n); err == nil {
		t.Error("Encode accepted a point leaf entry of count 2")
	}
}

func TestEncodeRejectsWrongDim(t *testing.T) {
	c := Codec{Dim: 3, PageSize: 4096}
	rnd := rand.New(rand.NewSource(2))
	n := randomNode(rnd, 2, 3, true)
	if _, err := c.Encode(n); err == nil {
		t.Error("Encode accepted wrong-dimension entries")
	}
}

func TestDecodeRejectsCorruptPages(t *testing.T) {
	c := Codec{Dim: 2, PageSize: 4096}
	rnd := rand.New(rand.NewSource(3))
	buf, err := c.Encode(randomNodeFor(rnd, c, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), buf...)
	badMagic[0] = 0x00
	badVer := append([]byte(nil), buf...)
	badVer[1] = 99
	badDim := append([]byte(nil), buf...)
	badDim[6] = 7
	// A version-1 leaf, the rectangle leaf of an earlier format, is
	// refused by its version byte, never read as points.
	rectLeaf, err := c.Encode(randomNode(rnd, 2, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(rectLeaf[2:], 0)
	for what, img := range map[string][]byte{
		"truncated page": buf[:8], "bad magic": badMagic, "bad version": badVer, "dim mismatch": badDim,
		"rectangle leaf": rectLeaf,
	} {
		for name, decode := range bothDecoders(c) {
			if decode(img) == nil {
				t.Errorf("%s accepted %s", name, what)
			}
		}
	}
}

// TestDecodeAllocsIndependentOfEntryCount pins both decoders' slabs: a
// full page costs the same few allocations as a page with one entry,
// and the points DecodeNode cuts from its slab cannot grow into each
// other.
func TestDecodeAllocsIndependentOfEntryCount(t *testing.T) {
	for _, spheres := range []bool{false, true} {
		c := Codec{Dim: 8, PageSize: 4096, Spheres: spheres}
		rnd := rand.New(rand.NewSource(5))
		image := func(entries int) []byte {
			n := randomNodeFor(rnd, c, entries, true)
			if spheres {
				for i := range n.Entries {
					n.Entries[i].Sphere = geom.Sphere{Center: n.Entries[i].Rect.Lo, Radius: 1}
				}
			}
			buf, err := c.Encode(n)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		for name, decode := range bothDecoders(c) {
			allocs := func(buf []byte) float64 {
				return testing.AllocsPerRun(50, func() {
					if err := decode(buf); err != nil {
						t.Fatal(err)
					}
				})
			}
			one, full := allocs(image(1)), allocs(image(c.Capacity(0)))
			t.Logf("%s spheres=%v: %.0f allocations per page", name, spheres, full)
			if full != one {
				t.Errorf("%s spheres=%v: full page decodes in %.0f allocations, one entry in %.0f", name, spheres, full, one)
			}
			if full > 4 {
				t.Errorf("%s spheres=%v: full page decodes in %.0f allocations, want at most 4", name, spheres, full)
			}
		}
	}

	c := Codec{Dim: 2, PageSize: 4096, Spheres: true}
	n := randomNode(rand.New(rand.NewSource(6)), 2, 3, true)
	for i := range n.Entries {
		n.Entries[i].Sphere = geom.Sphere{Center: n.Entries[i].Rect.Hi, Radius: 2}
	}
	buf, err := c.Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.DecodeNode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec.Entries {
		e := &dec.Entries[i]
		for _, p := range []geom.Point{e.Rect.Lo, e.Rect.Hi, e.Sphere.Center} {
			_ = append(p, -1) // must reallocate, not write into the next point
		}
	}
	for i := range n.Entries {
		a, b := n.Entries[i], dec.Entries[i]
		if !rectBitsEqual(a.Rect, b.Rect) || !pointBitsEqual(a.Sphere.Center, b.Sphere.Center) {
			t.Fatalf("entry %d: an append to one decoded point overwrote another", i)
		}
	}
}
