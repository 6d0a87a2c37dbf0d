package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// viewsNode checks that a page view answers every per-entry accessor
// with exactly the node's entries, coordinates compared bitwise.
func viewsNode(f *rtree.FlatNode, n *rtree.Node) error {
	if f.ID != n.ID || f.Level != n.Level || f.Len() != len(n.Entries) || f.IsLeaf() != n.IsLeaf() {
		return fmt.Errorf("view header (%d,%d,%d), node (%d,%d,%d)", f.ID, f.Level, f.Len(), n.ID, n.Level, len(n.Entries))
	}
	for i, e := range n.Entries {
		if f.Child(i) != e.Child || f.Object(i) != e.Object || f.Count(i) != e.Count {
			return fmt.Errorf("entry %d identity: view (%d,%d,%d), node (%d,%d,%d)",
				i, f.Child(i), f.Object(i), f.Count(i), e.Child, e.Object, e.Count)
		}
		for a := range e.Rect.Lo {
			if math.Float64bits(f.Rects.Lo[a][i]) != math.Float64bits(e.Rect.Lo[a]) ||
				math.Float64bits(f.Rects.Hi[a][i]) != math.Float64bits(e.Rect.Hi[a]) {
				return fmt.Errorf("entry %d axis %d: view [%g, %g], node %v", i, a, f.Rects.Lo[a][i], f.Rects.Hi[a][i], e.Rect)
			}
		}
		if f.IsLeaf() && !pointBitsEqual(f.Point(i), e.Rect.Lo) {
			return fmt.Errorf("entry %d point: view %v, node %v", i, f.Point(i), e.Rect.Lo)
		}
		if (f.Spheres != nil) != e.Sphere.Valid() {
			return fmt.Errorf("entry %d sphere: view has spheres %v, node %v", i, f.Spheres != nil, e.Sphere)
		}
		if s := f.Spheres; s != nil {
			for a := range e.Sphere.Center {
				if math.Float64bits(s.Center[a][i]) != math.Float64bits(e.Sphere.Center[a]) {
					return fmt.Errorf("entry %d sphere center axis %d: view %g, node %v", i, a, s.Center[a][i], e.Sphere)
				}
			}
			if math.Float64bits(s.Radius[i]) != math.Float64bits(e.Sphere.Radius) {
				return fmt.Errorf("entry %d sphere radius: view %g, node %v", i, s.Radius[i], e.Sphere)
			}
		}
	}
	return nil
}

// flatEqual compares two views field by field: identity, level, every
// axis of every column bitwise, references, counts and spheres.
func flatEqual(a, b *rtree.FlatNode) error {
	if a.ID != b.ID || a.Level != b.Level || a.Len() != b.Len() {
		return fmt.Errorf("headers differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.ID, a.Level, a.Len(), b.ID, b.Level, b.Len())
	}
	if a.Rects.Dim() != b.Rects.Dim() || a.Rects.Len() != b.Rects.Len() {
		return fmt.Errorf("rect columns %dx%d vs %dx%d", a.Rects.Dim(), a.Rects.Len(), b.Rects.Dim(), b.Rects.Len())
	}
	for ax := 0; ax < a.Rects.Dim(); ax++ {
		if !pointBitsEqual(a.Rects.Lo[ax], b.Rects.Lo[ax]) || !pointBitsEqual(a.Rects.Hi[ax], b.Rects.Hi[ax]) {
			return fmt.Errorf("rect axis %d differs", ax)
		}
	}
	if (a.Spheres == nil) != (b.Spheres == nil) {
		return fmt.Errorf("sphere columns: %v vs %v", a.Spheres != nil, b.Spheres != nil)
	}
	if a.Spheres != nil {
		if a.Spheres.Dim() != b.Spheres.Dim() || !pointBitsEqual(a.Spheres.Radius, b.Spheres.Radius) {
			return errors.New("sphere radii differ")
		}
		for ax := range a.Spheres.Center {
			if !pointBitsEqual(a.Spheres.Center[ax], b.Spheres.Center[ax]) {
				return fmt.Errorf("sphere axis %d differs", ax)
			}
		}
	}
	for i := 0; i < a.Len(); i++ {
		if a.Child(i) != b.Child(i) || a.Object(i) != b.Object(i) || a.Count(i) != b.Count(i) {
			return fmt.Errorf("entry %d identity differs", i)
		}
		if a.IsLeaf() && !pointBitsEqual(a.Point(i), b.Point(i)) {
			return fmt.Errorf("entry %d point differs", i)
		}
	}
	return nil
}

// withSpheres gives every entry of a directory node a sphere, as the SR
// layout requires.
func withSpheres(n *rtree.Node, rnd *rand.Rand) *rtree.Node {
	for i := range n.Entries {
		if n.IsLeaf() {
			break
		}
		c := make(geom.Point, len(n.Entries[i].Rect.Lo))
		for a := range c {
			c[a] = rnd.NormFloat64() * 100
		}
		n.Entries[i].Sphere = geom.Sphere{Center: c, Radius: rnd.Float64() * 10}
	}
	return n
}

// A decoded page answers every accessor with the live node's entries,
// bitwise, in both layouts, and equals the live node's own view.
func TestDecodedViewMatchesLiveEntries(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, spheres := range []bool{false, true} {
		for _, leaf := range []bool{true, false} {
			for _, dim := range []int{1, 2, 8} {
				c := Codec{Dim: dim, PageSize: 4096, Spheres: spheres}
				level := 1
				if leaf {
					level = 0
				}
				for _, entries := range []int{0, 1, c.Capacity(level)} {
					n := randomNodeFor(rnd, c, entries, leaf)
					if spheres {
						withSpheres(n, rnd)
					}
					buf, err := c.Encode(n)
					if err != nil {
						t.Fatal(err)
					}
					f, err := c.Decode(buf)
					if err != nil {
						t.Fatal(err)
					}
					if err := viewsNode(f, n); err != nil {
						t.Errorf("spheres=%v leaf=%v dim=%d m=%d: decoded: %v", spheres, leaf, dim, entries, err)
					}
					if err := viewsNode(n.Flat(), n); err != nil {
						t.Errorf("spheres=%v leaf=%v dim=%d m=%d: live: %v", spheres, leaf, dim, entries, err)
					}
					if err := flatEqual(f, n.Flat()); err != nil {
						t.Errorf("spheres=%v leaf=%v dim=%d m=%d: decoded vs live view: %v", spheres, leaf, dim, entries, err)
					}
					if want := leaf && entries > 0; pointColumns(f) != want || pointColumns(n.Flat()) != want {
						t.Errorf("spheres=%v leaf=%v dim=%d m=%d: point columns decoded %v, live %v, want %v",
							spheres, leaf, dim, entries, pointColumns(f), pointColumns(n.Flat()), want)
					}
				}
			}
		}
	}
}

// The format stores 64-bit page ids and child references; a PageID has
// 32 bits. An image whose stored id is 7+2³² used to decode as page 7
// and pass every identity check above the decoder.
func TestDecodeRejectsWidePageReferences(t *testing.T) {
	c := Codec{Dim: 2, PageSize: 512}
	leaf := &rtree.Node{ID: 7, Level: 0}
	leaf.Entries = append(leaf.Entries, rtree.LeafEntry(geom.Point{3, 4}, 5))
	dir := &rtree.Node{ID: 7, Level: 1, Entries: []rtree.Entry{
		{Rect: geom.PointRect(geom.Point{3, 4}), Child: 9, Count: 3},
	}}
	const idOff, refOff = 8, headerSize + 2*2*8
	for _, tc := range []struct {
		name string
		node *rtree.Node
		off  int
		raw  uint64
		ok   bool
	}{
		{"page id 7", leaf, idOff, 7, true},
		{"page id 7+2^32", leaf, idOff, 7 + 1<<32, false},
		{"page id 0", leaf, idOff, 0, false},
		{"page id 2^31", leaf, idOff, 1 << 31, false},
		{"page id MaxInt32", leaf, idOff, math.MaxInt32, true},
		{"child 9", dir, refOff, 9, true},
		{"child 9+2^32", dir, refOff, 9 + 1<<32, false},
		{"child 0", dir, refOff, 0, false},
		{"child -1", dir, refOff, math.MaxUint64, false},
		{"object 9+2^32", leaf, refOff, 9 + 1<<32, true}, // object ids are 64-bit
	} {
		buf, err := c.Encode(tc.node)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[tc.off:], tc.raw)
		for name, decode := range bothDecoders(c) {
			err := decode(buf)
			if tc.ok {
				if err != nil {
					t.Errorf("%s: %s rejected the image: %v", tc.name, name, err)
				}
				continue
			}
			var ie *IntegrityError
			if !errors.As(err, &ie) {
				t.Errorf("%s: %s returned %v, want *IntegrityError", tc.name, name, err)
			} else if ie.Raw != tc.raw || ie.Got != rtree.NilPage {
				t.Errorf("%s: %s reported %+v", tc.name, name, ie)
			}
		}
	}

	// Through a reader the error names the page that was asked for.
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "drive.pages"), c, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	img, err := c.Encode(leaf)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(img[idOff:], uint64(leaf.ID)+1<<32)
	if err := fs.WriteImage(leaf.ID, img); err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadPage(leaf.ID)
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Want != leaf.ID {
		t.Errorf("ReadPage of a wide-id image: %v, want *IntegrityError for page %d", err, leaf.ID)
	}
}

// The read path's decoder costs at most 4 allocations a page and at
// most half the bytes the node decoder plus BuildFlat — what a page miss
// cost before the view was decoded directly — allocate at 8-d.
func TestFlatDecodeBudget(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for _, spheres := range []bool{false, true} {
		c := Codec{Dim: 8, PageSize: 4096, Spheres: spheres}
		n := randomNodeFor(rnd, c, c.Capacity(0), true)
		if spheres {
			withSpheres(n, rnd)
		}
		buf, err := c.Encode(n)
		if err != nil {
			t.Fatal(err)
		}
		flat := func() {
			if _, err := c.Decode(buf); err != nil {
				t.Fatal(err)
			}
		}
		node := func() {
			dec, err := c.DecodeNode(buf)
			if err != nil {
				t.Fatal(err)
			}
			dec.Flat()
		}
		flatAllocs, flatBytes := testing.AllocsPerRun(200, flat), bytesPerRun(flat)
		nodeAllocs, nodeBytes := testing.AllocsPerRun(200, node), bytesPerRun(node)
		t.Logf("spheres=%v: flat %.0f allocs %.0f B, node+view %.0f allocs %.0f B",
			spheres, flatAllocs, flatBytes, nodeAllocs, nodeBytes)
		if flatAllocs > 4 {
			t.Errorf("spheres=%v: flat decode makes %.0f allocations, budget 4", spheres, flatAllocs)
		}
		if flatBytes > 0.5*nodeBytes {
			t.Errorf("spheres=%v: flat decode allocates %.0f B, more than half of the node path's %.0f B",
				spheres, flatBytes, nodeBytes)
		}
	}
}

// bytesPerRun reports the mean bytes f allocates per call.
func bytesPerRun(f func()) float64 {
	const runs = 200
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// A codec with a view pool decodes every page to the view a pool-less
// codec builds, whatever page the recycled memory held before — other
// dimensions of fill, level and layout included — and a failed check
// hands out nothing.
func TestPooledDecodeMatchesPlain(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for _, spheres := range []bool{false, true} {
		plain := Codec{Dim: 8, PageSize: 4096, Spheres: spheres}
		pooled := plain
		pooled.Views = rtree.NewViewPool(3)
		var held []*rtree.FlatNode
		for round := 0; round < 200; round++ {
			leaf := rnd.Intn(2) == 0
			level := 1
			if leaf {
				level = 0
			}
			n := randomNodeFor(rnd, plain, rnd.Intn(plain.Capacity(level)+1), leaf)
			if spheres {
				withSpheres(n, rnd)
			}
			buf, err := plain.Encode(n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pooled.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := flatEqual(got, want); err != nil {
				t.Fatalf("spheres=%v round %d: pooled vs plain: %v", spheres, round, err)
			}
			if err := viewsNode(got, n); err != nil {
				t.Fatalf("spheres=%v round %d: %v", spheres, round, err)
			}
			// Hand views back out of order, a few rounds late.
			if held = append(held, got); len(held) > 2 {
				i := rnd.Intn(len(held))
				pooled.Views.Put(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		}
		if pooled.Views.Stats().Reused == 0 {
			t.Fatalf("spheres=%v: the pool never handed a view out again", spheres)
		}
		dir := randomNode(rnd, plain.Dim, 3, false)
		if spheres {
			withSpheres(dir, rnd)
		}
		bad, err := plain.Encode(dir)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(bad[headerSize+16*plain.Dim:], 1<<40) // a child reference no page has
		if f, err := pooled.Decode(bad); err == nil {
			t.Fatalf("spheres=%v: a wide child reference decoded to %+v", spheres, f)
		}
	}
}

// The steady state of the read path: decoding into a warm pool
// allocates nothing.
func TestDecodeFromWarmPoolAllocatesNothing(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	for _, spheres := range []bool{false, true} {
		c := Codec{Dim: 8, PageSize: 4096, Spheres: spheres, Views: rtree.NewViewPool(2)}
		n := randomNodeFor(rnd, c, c.Capacity(0), true)
		if spheres {
			withSpheres(n, rnd)
		}
		buf, err := c.Encode(n)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			f, err := c.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			c.Views.Put(f)
		}
		decode()
		if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
			t.Errorf("spheres=%v: %.2f allocations per decode from a warm pool, want 0", spheres, allocs)
		}
	}
}
