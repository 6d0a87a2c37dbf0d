package rtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// fillAtPageFanout builds a tree whose leaf and directory capacities
// are what one page of the codec holds at each level, inserts n random
// points and checks that every node it leaves behind encodes into one
// page.
func fillAtPageFanout(t *testing.T, c pagestore.Codec, n int) {
	t.Helper()
	st := rtree.NewMemStore()
	tr, err := rtree.New(rtree.Config{
		Dim: c.Dim, MaxEntries: c.Capacity(1), LeafMaxEntries: c.Capacity(0),
		UseSpheres: c.Spheres,
	}, st)
	if err != nil {
		t.Fatalf("dim %d spheres %v: New at page fanout %d/%d: %v", c.Dim, c.Spheres, c.Capacity(0), c.Capacity(1), err)
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
		t.Fatalf("dim %d spheres %v: %d points never split a leaf of %d", c.Dim, c.Spheres, n, c.Capacity(0))
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
	if c := tiny.Capacity(1); c >= 4 {
		t.Fatalf("64-byte 10-d page holds %d entries, want fewer than 4", c)
	}
	if _, err := rtree.New(rtree.Config{Dim: 10, MaxEntries: tiny.Capacity(1)}, nil); err == nil {
		t.Error("New accepted a node capacity below 4")
	}
	if _, err := rtree.New(rtree.Config{Dim: 10, MaxEntries: 8, LeafMaxEntries: 3}, nil); err == nil {
		t.Error("New accepted a leaf capacity below 4")
	}
}

// TestPointLeafCapacity pins what the point-leaf layout buys: a point
// and its object id take 8·dim + 8 bytes where the paper's degenerate
// rectangle and count take 16·dim + 12, a directory entry's size, so a
// 4 KiB leaf at 8-d holds 56 entries instead of 29.
func TestPointLeafCapacity(t *testing.T) {
	for _, c := range []struct {
		dim, leaf, rect int
	}{{2, 170, 92}, {8, 56, 29}, {16, 30, 15}} {
		codec := pagestore.Codec{Dim: c.dim, PageSize: 4096}
		if leaf, dir := codec.Capacity(0), codec.Capacity(1); leaf != c.leaf || dir != c.rect {
			t.Errorf("dim %d: a leaf holds %d entries, a directory page %d, want %d and %d", c.dim, leaf, dir, c.leaf, c.rect)
		}
		if leaf, dir := codec.EntrySize(0), codec.EntrySize(1); leaf != 8*c.dim+8 || dir != 16*c.dim+12 {
			t.Errorf("dim %d: entry sizes %d (leaf) and %d (directory)", c.dim, leaf, dir)
		}
	}
}

// TestSRCapacitySmaller checks that sphere entries cost directory page
// space, so the SR-tree's directory fanout is below the R*-tree's while
// its leaves, points like every tree's, hold as many, and that an
// SR-tree at its fanout keeps every node, spheres included, within a
// page.
func TestSRCapacitySmaller(t *testing.T) {
	for _, dim := range []int{2, 5, 10} {
		r := pagestore.Codec{Dim: dim, PageSize: 4096}
		s := pagestore.Codec{Dim: dim, PageSize: 4096, Spheres: true}
		if s.Capacity(1) >= r.Capacity(1) {
			t.Errorf("dim %d: SR directory capacity %d not below rect capacity %d", dim, s.Capacity(1), r.Capacity(1))
		}
		if s.Capacity(0) != r.Capacity(0) {
			t.Errorf("dim %d: SR leaf capacity %d, R* %d", dim, s.Capacity(0), r.Capacity(0))
		}
	}
	fillAtPageFanout(t, pagestore.Codec{Dim: 2, PageSize: 4096, Spheres: true}, 1500)
}
