package pagestore

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func TestCodecCapacityMatchesRtree(t *testing.T) {
	for _, dim := range []int{2, 3, 5, 10, 16} {
		c := Codec{Dim: dim, PageSize: 4096}
		if got, want := c.Capacity(), rtree.CapacityForPage(4096, dim); got != want && want > 4 {
			t.Errorf("dim %d: codec capacity %d, rtree capacity %d", dim, got, want)
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

// Property: DecodeNode(Encode(n)) == n and Decode(Encode(n)) views n,
// for random nodes of all shapes.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, dimRaw, entRaw uint8, leaf bool) bool {
		rnd := rand.New(rand.NewSource(seed))
		dim := int(dimRaw)%10 + 1
		c := Codec{Dim: dim, PageSize: 4096}
		entries := int(entRaw) % (c.Capacity() + 1)
		n := randomNode(rnd, dim, entries, leaf)
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
		view, err := c.Decode(buf)
		if err != nil {
			return false
		}
		if err := viewsNode(view, n); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	c := Codec{Dim: 2, PageSize: 256} // capacity (256-16)/44 = 5
	rnd := rand.New(rand.NewSource(1))
	n := randomNode(rnd, 2, c.Capacity()+1, true)
	if _, err := c.Encode(n); err == nil {
		t.Error("Encode accepted overflowing node")
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
	buf, err := c.Encode(randomNode(rnd, 2, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), buf...)
	badMagic[0] = 0x00
	badVer := append([]byte(nil), buf...)
	badVer[1] = 99
	badDim := append([]byte(nil), buf...)
	badDim[6] = 7
	for what, img := range map[string][]byte{
		"truncated page": buf[:8], "bad magic": badMagic, "bad version": badVer, "dim mismatch": badDim,
	} {
		for name, decode := range bothDecoders(c) {
			if decode(img) == nil {
				t.Errorf("%s accepted %s", name, what)
			}
		}
	}
}

func TestPagedStoreDrivesTree(t *testing.T) {
	ps := NewPagedStore(4096, 2)
	cfg := rtree.Config{Dim: 2, MaxEntries: ps.Codec().Capacity()}
	tr, err := rtree.New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Point{rnd.Float64() * 1000, rnd.Float64() * 1000}
		if err := tr.InsertPoint(pts[i], rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ps.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if ps.Encodes() == 0 {
		t.Error("no pages were encoded")
	}
	// Deletes keep the shadow consistent too.
	for i := 0; i < 1000; i++ {
		if !tr.DeletePoint(pts[i], rtree.ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := ps.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if ps.Len() == 0 || ps.Bytes() == 0 {
		t.Error("store emptied unexpectedly")
	}
	// kNN over the paged store must match results over a mem store.
	q := geom.Point{500, 500}
	got, _ := tr.NearestNeighbors(q, 10)
	if len(got) != 10 {
		t.Fatalf("kNN returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].DistSq < got[i-1].DistSq {
			t.Error("kNN results out of order")
		}
	}
}

func TestPagedStoreTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tiny page")
		}
	}()
	NewPagedStore(64, 10)
}

func TestPagedStoreFreeReclaims(t *testing.T) {
	ps := NewPagedStore(4096, 2)
	n := ps.Allocate(0)
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{1, 2}), 7))
	ps.Update(n)
	if ps.Bytes() != 4096 {
		t.Errorf("bytes = %d", ps.Bytes())
	}
	ps.Free(n.ID)
	if ps.Bytes() != 0 || ps.Len() != 0 {
		t.Error("Free did not reclaim")
	}
}

// TestPagedStoreConcurrentReads drives concurrent Get/Page/Len readers
// against a populated store while a writer keeps updating; under -race
// this is the pagestore concurrency gate.
func TestPagedStoreConcurrentReads(t *testing.T) {
	ps := NewPagedStore(4096, 2)
	ids := make([]rtree.PageID, 64)
	for i := range ids {
		n := ps.Allocate(0)
		n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{float64(i), 1}), rtree.ObjectID(i)))
		ps.Update(n)
		ids[i] = n.ID
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(g*17+i)%len(ids)]
				if ps.Get(id).ID != id {
					t.Errorf("Get(%d) returned wrong node", id)
					return
				}
				if ps.Page(id) == nil {
					t.Errorf("Page(%d) nil", id)
					return
				}
				_ = ps.Len()
				_ = ps.Bytes()
			}
		}(g)
	}
	writer := ps.Allocate(0)
	for i := 0; i < 2000; i++ {
		writer.Entries = writer.Entries[:0]
		writer.Entries = append(writer.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{float64(i), 2}), rtree.ObjectID(i)))
		ps.Update(writer)
	}
	close(stop)
	wg.Wait()
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
			n := randomNode(rnd, c.Dim, entries, true)
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
			one, full := allocs(image(1)), allocs(image(c.Capacity()))
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
