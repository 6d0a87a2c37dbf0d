package rtree

import (
	"math"
	"testing"
)

// fillView writes a recognisable value into every column and reference
// of a fresh page view, as a decoder would.
func fillView(f *FlatNode, refs []PageRef, seed float64) {
	for a := range f.Rects.Lo {
		for i := range f.Rects.Lo[a] {
			f.Rects.Lo[a][i] = seed + float64(a*100+i)
			f.Rects.Hi[a][i] = seed + float64(a*100+i) + 0.5
		}
	}
	if f.Spheres != nil {
		for a := range f.Spheres.Center {
			for i := range f.Spheres.Center[a] {
				f.Spheres.Center[a][i] = seed + float64(a*100+i) + 0.25
			}
		}
		for i := range f.Spheres.Radius {
			f.Spheres.Radius[i] = seed + float64(i)
		}
	}
	for i := range refs {
		refs[i] = PageRef{Ref: int64(seed) + int64(i) + 1, Count: uint32(i + 1)}
	}
}

// A pooled view is rebuilt in the memory of the one put back, whatever
// the two pages' shapes, and reads exactly like a pool-less view of the
// same page.
func TestViewPoolReusesMemory(t *testing.T) {
	pool := NewViewPool(4)
	shapes := []struct {
		level, dim, m int
		cols          Columns
	}{{0, 2, 10, RectColumns}, {1, 2, 4, RectColumns}, {0, 2, 10, SphereColumns}, {2, 2, 0, RectColumns},
		{0, 2, 7, SphereColumns}, {0, 2, 12, PointColumns}, {1, 3, 4, RectColumns}, {0, 3, 9, PointColumns}}
	var prev *FlatNode
	for n, sh := range shapes {
		f, refs := NewPageView(pool, PageID(n+1), sh.level, sh.dim, sh.m, sh.cols)
		if prev != nil && f != prev {
			t.Fatalf("shape %d: the view put back was not the one handed out", n)
		}
		want, wantRefs := NewPageView(nil, PageID(n+1), sh.level, sh.dim, sh.m, sh.cols)
		if sh.m > 0 {
			fillView(f, refs, float64(1000*n))
			fillView(want, wantRefs, float64(1000*n))
		}
		if f.ID != want.ID || f.Level != want.Level || f.Len() != want.Len() ||
			(f.Spheres == nil) != (want.Spheres == nil) || f.Points() != want.Points() ||
			f.Points() != (sh.cols == PointColumns && sh.m > 0) {
			t.Fatalf("shape %d: pooled view %+v, plain view %+v", n, f, want)
		}
		for i := 0; i < sh.m; i++ {
			if f.Child(i) != want.Child(i) || f.Object(i) != want.Object(i) || f.Count(i) != want.Count(i) {
				t.Fatalf("shape %d entry %d: identity differs", n, i)
			}
			r, wr := f.Rect(i), want.Rect(i)
			s, ws := f.Sphere(i), want.Sphere(i)
			for a := 0; a < sh.dim; a++ {
				if r.Lo[a] != wr.Lo[a] || r.Hi[a] != wr.Hi[a] {
					t.Fatalf("shape %d entry %d: rect %v, want %v", n, i, r, wr)
				}
				if sh.cols == SphereColumns && s.Center[a] != ws.Center[a] {
					t.Fatalf("shape %d entry %d: sphere %v, want %v", n, i, s, ws)
				}
			}
			if s.Radius != ws.Radius || s.Valid() != ws.Valid() {
				t.Fatalf("shape %d entry %d: sphere %v, want %v", n, i, s, ws)
			}
		}
		pool.Put(f)
		prev = f
	}
	if got, want := pool.Stats(), (ViewStats{Made: 1, Reused: uint64(len(shapes) - 1), Idle: 1}); got != want {
		t.Errorf("Stats() = %+v, want %+v: one frame serves a reader that holds one view at a time", got, want)
	}
}

// What Rect and Sphere hand out for a pooled view survives the view:
// poisoning and refilling the memory does not reach it.
func TestPooledViewRectsDoNotAlias(t *testing.T) {
	pool := NewViewPool(1)
	f, refs := NewPageView(pool, 7, 0, 3, 5, SphereColumns)
	fillView(f, refs, 40)
	r, s := f.Rect(2), f.Sphere(2)
	lo, hi, c := r.Lo.Clone(), r.Hi.Clone(), s.Center.Clone()
	PoisonView(f)
	if f.ID != -1 || f.Level != -1 || !math.IsNaN(f.Rects.Lo[0][0]) || !math.IsNaN(f.Spheres.Radius[4]) || f.Child(0) != -1 {
		t.Fatalf("PoisonView left the view readable: %+v", f)
	}
	pool.Put(f)
	g, grefs := NewPageView(pool, 8, 0, 3, 5, SphereColumns)
	fillView(g, grefs, 900)
	for a := 0; a < 3; a++ {
		if r.Lo[a] != lo[a] || r.Hi[a] != hi[a] || s.Center[a] != c[a] {
			t.Fatalf("a rectangle handed out earlier changed with the pooled memory: %v %v", r, s)
		}
	}
}

// Views no pool handed out are not the pool's to keep, every view it
// did hand out is kept when it comes back — what the owner had out at
// once is what the pool holds, however small the hint it was built with
// — and putting a view back twice, an owner's bug that would hand one
// view to two decoders, panics.
func TestViewPoolPutRules(t *testing.T) {
	pool := NewViewPool(1)
	plain, _ := NewPageView(nil, 1, 0, 2, 3, RectColumns)
	pool.Put(plain)
	pool.Put(BuildFlat(&Node{ID: 2}))
	if st := pool.Stats(); st != (ViewStats{}) {
		t.Fatalf("pool counts views it never handed out: %+v", st)
	}
	PoisonView(plain)
	if plain.ID != 1 {
		t.Error("PoisonView touched a view no pool owns")
	}
	a, _ := NewPageView(pool, 3, 0, 2, 3, RectColumns)
	b, _ := NewPageView(pool, 4, 0, 2, 3, RectColumns)
	pool.Put(a)
	pool.Put(b)
	if got, want := pool.Stats(), (ViewStats{Made: 2, Idle: 2}); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Put of the same view did not panic")
		}
	}()
	pool.Put(a)
}

// A warm pool serves a page of a shape it has seen without allocating.
func TestViewPoolSteadyStateAllocatesNothing(t *testing.T) {
	pool := NewViewPool(2)
	f, _ := NewPageView(pool, 1, 0, 8, 20, SphereColumns)
	pool.Put(f)
	next := PageID(2)
	if allocs := testing.AllocsPerRun(500, func() {
		f, _ := NewPageView(pool, next, 0, 8, int(next)%20+1, SphereColumns)
		next++
		pool.Put(f)
	}); allocs != 0 {
		t.Errorf("NewPageView from a warm pool: %.2f allocations, want 0", allocs)
	}
}

// The owner's count: the release of the last hold — the view's
// eviction from its readers — is reported, once; a release too many is
// the owner's bug; a view no pool owns is not counted.
func TestViewHoldsAndEviction(t *testing.T) {
	pool := NewViewPool(1)
	newView := func() *FlatNode {
		f, _ := NewPageView(pool, 1, 0, 2, 3, RectColumns)
		return f
	}
	f := newView()
	if f.owner == nil {
		t.Fatal("a view drawn from a pool does not say so")
	}
	f.Hold(1)
	f.Hold(2)
	if f.Release() || f.Release() {
		t.Error("a release with holds left reported the view free")
	}
	if !f.Release() {
		t.Error("the last release did not report the view free")
	}
	pool.Put(f)

	g := newView() // the same memory: the count starts over
	if g != f {
		t.Fatal("the view put back was not handed out again")
	}
	g.Hold(1)
	if !g.Release() {
		t.Error("the release of a recycled view's only hold did not report it free")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a release without a hold did not panic")
			}
		}()
		g.Release()
	}()

	plain, _ := NewPageView(nil, 2, 0, 2, 3, RectColumns)
	plain.Hold(1)
	if plain.owner != nil || plain.Release() {
		t.Error("a view no pool owns was counted")
	}
}

// CopyRect writes what Rect returns into the caller's memory.
func TestCopyRect(t *testing.T) {
	pool := NewViewPool(1)
	f, refs := NewPageView(pool, 7, 0, 3, 5, RectColumns)
	fillView(f, refs, 40)
	c := make([]float64, 6)
	for i := 0; i < f.Len(); i++ {
		f.CopyRect(i, c)
		r := f.Rect(i)
		for a := 0; a < 3; a++ {
			if c[a] != r.Lo[a] || c[3+a] != r.Hi[a] {
				t.Fatalf("entry %d: CopyRect %v, Rect %v", i, c, r)
			}
		}
	}
}
