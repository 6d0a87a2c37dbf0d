package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// benchNodes builds directory nodes with the given entry count and
// dimensionality, optionally with SR-tree spheres on every entry.
func benchNodes(dim, perNode, count int, spheres bool) []*rtree.FlatNode {
	rng := rand.New(rand.NewSource(7))
	nodes := make([]*rtree.FlatNode, count)
	for nn := range nodes {
		n := &rtree.Node{ID: rtree.PageID(nn + 1), Level: 2}
		for i := 0; i < perNode; i++ {
			lo := make(geom.Point, dim)
			hi := make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = rng.Float64() * 0.5
				hi[a] = lo[a] + rng.Float64()*0.5
			}
			e := rtree.Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, Child: rtree.PageID(100 + i), Count: 1 + rng.Intn(50)}
			if spheres {
				c := make(geom.Point, dim)
				for a := range c {
					c[a] = (lo[a] + hi[a]) / 2
				}
				e.Sphere = geom.Sphere{Center: c, Radius: math.Abs(rng.NormFloat64())}
			}
			n.Entries = append(n.Entries, e)
		}
		nodes[nn] = n.Flat()
	}
	return nodes
}

// BenchmarkMakeCandidates measures the candidate-filtering pass — the
// CPU core of every directory stage — batch versus the scalar reference,
// at directory fan-outs typical for 4 KiB pages.
func BenchmarkMakeCandidates(b *testing.B) {
	for _, cfg := range []struct {
		dim     int
		perNode int
		spheres bool
	}{
		{2, 92, false},
		{4, 52, false},
		{4, 36, true},
		{10, 23, false},
	} {
		nodes := benchNodes(cfg.dim, cfg.perNode, 8, cfg.spheres)
		q := make(geom.Point, cfg.dim)
		for a := range q {
			q[a] = 0.5
		}
		name := fmt.Sprintf("d=%d/fanout=%d/spheres=%v", cfg.dim, cfg.perNode, cfg.spheres)
		b.Run("batch/"+name, func(b *testing.B) {
			sc := new(scratch)
			for i := 0; i < b.N; i++ {
				_ = sc.makeCandidates(q, nodes)
			}
		})
		b.Run("scalar/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = makeCandidatesScalar(q, nodes)
			}
		})
	}
}
