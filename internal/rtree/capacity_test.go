package rtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// fillAtPageFanout builds a tree whose node capacity is what one page
// of the codec holds, inserts n random points and checks that every
// node it leaves behind encodes into one page.
func fillAtPageFanout(t *testing.T, c pagestore.Codec, n int) {
	t.Helper()
	st := rtree.NewMemStore()
	tr, err := rtree.New(rtree.Config{Dim: c.Dim, MaxEntries: c.Capacity(), UseSpheres: c.Spheres}, st)
	if err != nil {
		t.Fatalf("dim %d spheres %v: New at page fanout %d: %v", c.Dim, c.Spheres, c.Capacity(), err)
	}
	rnd := rand.New(rand.NewSource(int64(c.Dim)))
	for i := 0; i < n; i++ {
		p := make(geom.Point, c.Dim)
		for d := range p {
			p[d] = rnd.Float64()
		}
		if err := tr.InsertPoint(p, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("dim %d spheres %v: %d points never split a node of %d", c.Dim, c.Spheres, n, c.Capacity())
	}
	tr.Walk(func(n *rtree.Node, _ int) bool {
		if _, err := c.Encode(n); err != nil {
			t.Errorf("dim %d spheres %v: %v", c.Dim, c.Spheres, err)
		}
		return true
	})
}

// TestCapacityForPage checks that the fanout a 4 KiB page gives is one
// the tree accepts and keeps within a page, and that a page too small
// for the tree's minimum fanout of 4 is refused by the tree — which is
// why parallel.Config floors the derived capacity at 4.
func TestCapacityForPage(t *testing.T) {
	for _, dim := range []int{2, 10} {
		fillAtPageFanout(t, pagestore.Codec{Dim: dim, PageSize: 4096}, 1500)
	}
	tiny := pagestore.Codec{Dim: 10, PageSize: 64}
	if c := tiny.Capacity(); c >= 4 {
		t.Fatalf("64-byte 10-d page holds %d entries, want fewer than 4", c)
	}
	if _, err := rtree.New(rtree.Config{Dim: 10, MaxEntries: tiny.Capacity()}, nil); err == nil {
		t.Error("New accepted a node capacity below 4")
	}
}

// TestSRCapacitySmaller checks that sphere entries cost page space, so
// the SR-tree's fanout is below the R*-tree's, and that an SR-tree at
// its fanout keeps every node, spheres included, within a page.
func TestSRCapacitySmaller(t *testing.T) {
	for _, dim := range []int{2, 5, 10} {
		r := pagestore.Codec{Dim: dim, PageSize: 4096}.Capacity()
		s := pagestore.Codec{Dim: dim, PageSize: 4096, Spheres: true}.Capacity()
		if s >= r {
			t.Errorf("dim %d: SR capacity %d not below rect capacity %d", dim, s, r)
		}
	}
	fillAtPageFanout(t, pagestore.Codec{Dim: 2, PageSize: 4096, Spheres: true}, 1500)
}
