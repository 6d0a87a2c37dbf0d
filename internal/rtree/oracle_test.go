package rtree

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// The write path's reference: ChooseSubtree as an exhaustive all-pairs
// loop and the R* split with one cover MBR per distribution, exactly as
// they ran before the pruned scan and the prefix/suffix sweeps replaced
// them. Tree.chooseSubtree must return the oracle's index and
// Tree.chooseSplit the oracle's two groups, entry for entry.

// unionInto writes the minimum bounding rectangle of r and s into dst.
func unionInto(r, s, dst geom.Rect) {
	for i := range r.Lo {
		dst.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		dst.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
}

// oracleChooseSubtree is the R* descent rule with no pruning: every
// entry's overlap enlargement against every sibling.
func oracleChooseSubtree(t *Tree, n *Node, newEntry Entry) int {
	if t.cfg.UseSpheres {
		return chooseByCentroid(n, newEntry.Sphere.Center)
	}
	r := newEntry.Rect
	best := -1
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	childrenAreLeaves := n.Level == 1

	enlarged := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
	for i, e := range n.Entries {
		unionInto(e.Rect, r, enlarged)
		enlarge := enlarged.Area() - e.Rect.Area()
		area := e.Rect.Area()
		var overlap float64
		if childrenAreLeaves {
			for j, s := range n.Entries {
				if j == i {
					continue
				}
				overlap += enlarged.OverlapArea(s.Rect) - e.Rect.OverlapArea(s.Rect)
			}
		}
		if oracleBetter(overlap, enlarge, area, bestOverlap, bestEnlarge, bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
		}
	}
	return best
}

// oracleBetter compares (overlap, enlargement, area) triples
// lexicographically.
func oracleBetter(o, e, a, bo, be, ba float64) bool {
	if o != bo {
		return o < bo
	}
	if e != be {
		return e < be
	}
	return a < ba
}

// oracleChooseSplit is the R* split: the axis with the minimum margin
// sum over all distributions, then the distribution on it with minimum
// overlap (ties: minimum total area), every group's MBR computed from
// scratch.
func oracleChooseSplit(t *Tree, entries []Entry) (g1, g2 []Entry) {
	m := t.cfg.MinEntries
	total := len(entries)
	dim := t.cfg.Dim

	bestAxis := -1
	bestMargin := math.Inf(1)
	type sorted struct{ byLo, byHi []Entry }
	axisSorts := make([]sorted, dim)

	for axis := 0; axis < dim; axis++ {
		byLo := append([]Entry(nil), entries...)
		a := axis
		sort.SliceStable(byLo, func(i, j int) bool {
			if byLo[i].Rect.Lo[a] != byLo[j].Rect.Lo[a] {
				return byLo[i].Rect.Lo[a] < byLo[j].Rect.Lo[a]
			}
			return byLo[i].Rect.Hi[a] < byLo[j].Rect.Hi[a]
		})
		byHi := append([]Entry(nil), entries...)
		sort.SliceStable(byHi, func(i, j int) bool {
			if byHi[i].Rect.Hi[a] != byHi[j].Rect.Hi[a] {
				return byHi[i].Rect.Hi[a] < byHi[j].Rect.Hi[a]
			}
			return byHi[i].Rect.Lo[a] < byHi[j].Rect.Lo[a]
		})
		axisSorts[axis] = sorted{byLo, byHi}

		var marginSum float64
		for _, list := range [][]Entry{byLo, byHi} {
			for k := 1; k <= total-2*m+1; k++ {
				split := m - 1 + k
				marginSum += coverMBR(list[:split]).Margin() + coverMBR(list[split:]).Margin()
			}
		}
		if marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}

	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var bestList []Entry
	bestSplit := -1
	for _, list := range [][]Entry{axisSorts[bestAxis].byLo, axisSorts[bestAxis].byHi} {
		for k := 1; k <= total-2*m+1; k++ {
			split := m - 1 + k
			r1 := coverMBR(list[:split])
			r2 := coverMBR(list[split:])
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestList, bestSplit = list, split
			}
		}
	}

	g1 = append([]Entry(nil), bestList[:bestSplit]...)
	g2 = append([]Entry(nil), bestList[bestSplit:]...)
	return g1, g2
}

// oracleReinsertOrder is forced reinsertion's ordering: the entries by
// decreasing distance of their center from the node's MBR center, ties
// in entry order.
func oracleReinsertOrder(n *Node) []Entry {
	center := n.MBR().Center()
	type de struct {
		e Entry
		d float64
	}
	ds := make([]de, len(n.Entries))
	for i, e := range n.Entries {
		ds[i] = de{e, center.DistSq(e.Rect.Center())}
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].d > ds[j].d })
	out := make([]Entry, len(ds))
	for i := range ds {
		out[i] = ds[i].e
	}
	return out
}

// oracleModes are the three trees the paper's experiments build.
var oracleModes = []struct {
	name string
	set  func(*Config)
}{
	{"rstar", func(*Config) {}},
	{"sr", func(c *Config) { c.UseSpheres = true }},
	{"x", func(c *Config) { c.MaxOverlapRatio = 0.2 }},
}

// nodeGen makes the entries of one test node: n rectangles in dim
// dimensions.
type nodeGen struct {
	name string
	gen  func(rnd *rand.Rand, n, dim int) []geom.Rect
}

func pointRect(p geom.Point) geom.Rect { return geom.Rect{Lo: p, Hi: p.Clone()} }

var nodeGens = []nodeGen{
	{"random-boxes", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			lo, hi := make(geom.Point, dim), make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = rnd.Float64()
				hi[a] = lo[a] + rnd.Float64()*0.3
			}
			out[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		return out
	}},
	{"random-points", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			p := make(geom.Point, dim)
			for a := range p {
				p[a] = rnd.Float64()
			}
			out[i] = pointRect(p)
		}
		return out
	}},
	// Coordinates from a three-value grid: exact duplicates, exact ties
	// in every sum, boxes that touch without overlapping.
	{"grid", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			lo, hi := make(geom.Point, dim), make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = float64(rnd.Intn(3))
				hi[a] = lo[a] + float64(rnd.Intn(3))
			}
			out[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		return out
	}},
	// Unit-grid boxes with positive extents: overlap sums are small
	// integers, so two entries tie on a positive overlap enlargement and
	// the one with the smaller area enlargement must still get through.
	{"integer-boxes", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			lo, hi := make(geom.Point, dim), make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = float64(rnd.Intn(8))
				hi[a] = lo[a] + float64(1+rnd.Intn(3))
			}
			out[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		if rnd.Intn(2) == 0 { // the last one is the new entry: a point
			out[n-1].Hi = out[n-1].Lo.Clone()
		}
		return out
	}},
	{"duplicates", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = rnd.Float64()
		}
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = pointRect(p.Clone())
		}
		return out
	}},
	// The same three rectangles over and over: every score ties three
	// ways (at least), only the entry order decides.
	{"three-way-ties", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		var base [3]geom.Rect
		for b := range base {
			lo, hi := make(geom.Point, dim), make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = float64(b) * 0.25
				hi[a] = lo[a] + 0.5
			}
			base[b] = geom.Rect{Lo: lo, Hi: hi}
		}
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = base[i%3].Clone()
		}
		return out
	}},
	{"collinear", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			p := make(geom.Point, dim)
			v := float64(rnd.Intn(2*n)) / float64(n)
			for a := range p {
				p[a] = v
			}
			out[i] = pointRect(p)
		}
		return out
	}},
	// Zero extent on one axis for every box: every area and every
	// overlap is 0, which is where "take the smallest covering entry"
	// goes wrong.
	{"zero-extent-axis", func(rnd *rand.Rand, n, dim int) []geom.Rect {
		out := make([]geom.Rect, n)
		flat := rnd.Intn(dim)
		for i := range out {
			lo, hi := make(geom.Point, dim), make(geom.Point, dim)
			for a := 0; a < dim; a++ {
				lo[a] = float64(rnd.Intn(8)) / 8
				hi[a] = lo[a] + float64(rnd.Intn(4))/8
			}
			hi[flat] = lo[flat]
			if rnd.Intn(2) == 0 {
				lo[flat], hi[flat] = 1, 1 // the unit square's clamped edge
			}
			out[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		return out
	}},
}

// oracleNode wraps rects as the entries of a node at the given level.
// Directory entries get children and counts, and in SR mode every entry
// gets a sphere.
func oracleNode(cfg Config, level int, rects []geom.Rect) *Node {
	n := &Node{ID: 1, Level: level}
	for i, r := range rects {
		e := Entry{Rect: r, Count: 1 + i%5}
		if level == 0 {
			e.Object, e.Count = ObjectID(i), 1
		} else {
			e.Child = PageID(i + 2)
		}
		if cfg.UseSpheres {
			c := r.Center()
			e.Sphere = geom.Sphere{Center: c, Radius: c.Dist(r.Hi)}
		}
		n.Entries = append(n.Entries, e)
	}
	return n
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Child != b[i].Child || a[i].Object != b[i].Object || a[i].Count != b[i].Count ||
			!a[i].Rect.Equal(b[i].Rect) {
			return false
		}
	}
	return true
}

func oracleTree(t *testing.T, dim, maxEntries int, set func(*Config)) *Tree {
	t.Helper()
	cfg := Config{Dim: dim, MaxEntries: maxEntries}
	set(&cfg)
	return mustTree(t, cfg)
}

func TestChooseSubtreeMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	for _, dim := range []int{2, 8, 10} {
		for _, mode := range oracleModes {
			tr := oracleTree(t, dim, 24, mode.set)
			for _, g := range nodeGens {
				for _, level := range []int{1, 2} {
					for trial := 0; trial < 120; trial++ {
						size := 2 + rnd.Intn(2*tr.cfg.MaxEntries) // supernode sizes too
						if trial%3 != 0 {
							// Few entries: on the grid their overlap sums tie
							// exactly, and only (enlargement, area, index) is
							// left to decide.
							size = 2 + rnd.Intn(6)
						}
						rects := g.gen(rnd, size+1, dim)
						n := oracleNode(tr.cfg, level, rects[:size])
						// The new entry: drawn by the same generator, or an
						// exact copy of one the node already holds.
						r := rects[size]
						if trial%4 == 0 {
							r = rects[rnd.Intn(size)].Clone()
						}
						e := LeafEntry(r, 999)
						if tr.cfg.UseSpheres {
							c := r.Center()
							e.Sphere = geom.Sphere{Center: c, Radius: c.Dist(r.Hi)}
						}
						want := oracleChooseSubtree(tr, n, e)
						if got := tr.chooseSubtree(n, e); got != want {
							t.Fatalf("dim %d %s %s level %d trial %d: chooseSubtree = %d, oracle %d\nnew %v\nnode %v",
								dim, mode.name, g.name, level, trial, got, want, r, rects[:size])
						}
					}
				}
			}
		}
	}
}

// TestChooseSubtreeZeroAreaBeatsCovering is the counter-example to
// "descend into the smallest entry that covers the new rectangle": a
// leaf whose MBR has zero area scores (0, 0, 0) for a point on its line
// that it does not cover, and beats the covering entry's (0, 0, area).
func TestChooseSubtreeZeroAreaBeatsCovering(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	box := func(x1, y1, x2, y2 float64) geom.Rect {
		return geom.Rect{Lo: geom.Point{x1, y1}, Hi: geom.Point{x2, y2}}
	}
	n := oracleNode(tr.cfg, 1, []geom.Rect{
		box(0, 0, 1, 1),     // covers the new point, area 1
		box(0.2, 1, 0.4, 1), // a segment on the clamped edge y = 1
	})
	e := LeafEntry(geom.PointRect(geom.Point{0.5, 1}), 7)
	if want := oracleChooseSubtree(tr, n, e); want != 1 {
		t.Fatalf("oracle picked %d: the counter-example no longer holds", want)
	}
	if got := tr.chooseSubtree(n, e); got != 1 {
		t.Errorf("chooseSubtree = %d, want the zero-area entry 1", got)
	}
}

// TestChooseSubtreeOverlapTieAfterReplacement: the scores are, by entry,
// (6, 28, 2) (0, 7, 3) (1, 3, 1) (0, 4, 6) (1, 5, 1) (8, 35, 1). Entry 2
// has the least area enlargement and is the first incumbent, entry 1
// takes over with overlap 0, and entry 3 then ties that overlap with a
// smaller area enlargement — while meeting a sibling its own rectangle
// already overlapped as much. A scan that drops a candidate when its
// running sum reaches the incumbent's, rather than passes it, keeps
// entry 1.
func TestChooseSubtreeOverlapTieAfterReplacement(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	box := func(x1, y1, x2, y2 float64) geom.Rect {
		return geom.Rect{Lo: geom.Point{x1, y1}, Hi: geom.Point{x2, y2}}
	}
	n := oracleNode(tr.cfg, 1, []geom.Rect{
		box(0, 1, 2, 2), box(4, 1, 5, 4), box(2, 6, 3, 7), box(1, 5, 4, 7), box(3, 7, 4, 8), box(0, 0, 1, 1),
	})
	e := LeafEntry(geom.PointRect(geom.Point{6, 6}), 7)
	if want := oracleChooseSubtree(tr, n, e); want != 3 {
		t.Fatalf("oracle picked %d: the case no longer shows what it was built for", want)
	}
	if got := tr.chooseSubtree(n, e); got != 3 {
		t.Errorf("chooseSubtree = %d, want 3", got)
	}
}

func TestChooseSplitMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 8, 10} {
		for _, mode := range oracleModes {
			for _, maxEntries := range []int{4, 9, 23} {
				tr := oracleTree(t, dim, maxEntries, mode.set)
				for _, g := range nodeGens {
					for _, level := range []int{0, 1, 2} {
						for trial := 0; trial < 12; trial++ {
							size := maxEntries + 1
							if tr.cfg.MaxOverlapRatio > 0 && level > 0 && trial%3 == 0 {
								size += 1 + rnd.Intn(2*maxEntries) // a supernode, split at last
							}
							n := oracleNode(tr.cfg, level, g.gen(rnd, size, dim))
							w1, w2 := oracleChooseSplit(tr, n.Entries)
							g1, g2 := tr.chooseSplit(n.Entries, n.Level)
							if !sameEntries(g1, w1) || !sameEntries(g2, w2) {
								t.Fatalf("dim %d %s M=%d %s level %d trial %d: groups differ from the oracle's\n got %d+%d\nwant %d+%d",
									dim, mode.name, maxEntries, g.name, level, trial, len(g1), len(g2), len(w1), len(w2))
							}
						}
					}
				}
			}
		}
	}
}

func TestReinsertOrderMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	for _, dim := range []int{2, 8, 10} {
		for _, mode := range oracleModes {
			tr := oracleTree(t, dim, 16, mode.set)
			for _, g := range nodeGens {
				for trial := 0; trial < 20; trial++ {
					n := oracleNode(tr.cfg, trial%2, g.gen(rnd, tr.cfg.MaxEntries+1, dim))
					want := oracleReinsertOrder(n)
					p := int(reinsertFraction * float64(len(n.Entries)))
					tr.reinsert(n)
					// Kept entries stay in the node, farthest first; the
					// evicted ones queue nearest first.
					if !sameEntries(n.Entries, want[p:]) {
						t.Fatalf("dim %d %s %s trial %d: kept entries differ from the oracle's", dim, mode.name, g.name, trial)
					}
					queued := tr.pending[tr.pendingHead:]
					if len(queued) != p {
						t.Fatalf("queued %d entries, want %d", len(queued), p)
					}
					for i, pr := range queued {
						if !sameEntries([]Entry{pr.e}, want[p-1-i:p-i]) || pr.level != n.Level {
							t.Fatalf("dim %d %s %s trial %d: queue slot %d differs from the oracle's", dim, mode.name, g.name, trial, i)
						}
					}
					tr.pending, tr.pendingHead = tr.pending[:0], 0
				}
			}
		}
	}
}

// TestInsertMatchesOracleBuild grows two trees side by side — one
// through Insert, one through a descent that asks the oracles — and
// requires the same pages. It covers what the per-call tests cannot: the
// pruned scan's scratch carried from one call to the next.
func TestInsertMatchesOracleBuild(t *testing.T) {
	for _, mode := range oracleModes {
		for _, dim := range []int{2, 8} {
			cfg := Config{Dim: dim, MaxEntries: 8}
			mode.set(&cfg)
			tr := mustTree(t, cfg)
			rnd := rand.New(rand.NewSource(23))
			for i := 0; i < 1500; i++ {
				p := make(geom.Point, dim)
				for a := range p {
					p[a] = float64(rnd.Intn(64)) / 64 // ties are common
				}
				// Every descent step of this insert, checked as it happens.
				e := LeafEntry(geom.PointRect(p), ObjectID(i))
				if cfg.UseSpheres {
					e.Sphere = geom.Sphere{Center: p, Radius: 0}
				}
				for n := tr.store.Get(tr.root); n.Level > 0; {
					want := oracleChooseSubtree(tr, n, e)
					if got := tr.chooseSubtree(n, e); got != want {
						t.Fatalf("%s dim %d insert %d level %d: chooseSubtree = %d, oracle %d", mode.name, dim, i, n.Level, got, want)
					}
					n = tr.store.Get(n.Entries[want].Child)
				}
				if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The insert path's reference: Insert as it ran before growEntry, every
// ancestor entry recomputed from its child at every level of every
// insert, and Delete with its orphans reinserted the same way. The
// oracle's trees have no listener. Insert and Delete must build the
// oracle's tree bit for bit.

func oracleInsert(t *Tree, r geom.Rect, obj ObjectID) error {
	if err := t.checkRect(r); err != nil {
		return err
	}
	e := LeafEntry(copyRect(r), obj)
	if t.cfg.UseSpheres {
		c := e.Rect.Center()
		e.Sphere = geom.Sphere{Center: c, Radius: c.Dist(e.Rect.Hi)}
	}
	oracleInsertTopLevel(t, e, 0)
	t.size++
	return nil
}

func oracleInsertTopLevel(t *Tree, e Entry, level int) {
	clear(t.reinserted)
	oracleInsertEntry(t, e, level)
	for t.pendingHead < len(t.pending) {
		pr := t.pending[t.pendingHead]
		t.pendingHead++
		oracleInsertEntry(t, pr.e, pr.level)
	}
	clear(t.pending)
	t.pending, t.pendingHead = t.pending[:0], 0
}

func oracleInsertEntry(t *Tree, e Entry, level int) {
	if splitEntry := oracleInsertAt(t, t.store.Get(t.root), e, level); splitEntry != nil {
		oldRoot := t.store.Get(t.root)
		newRoot := t.store.Allocate(oldRoot.Level + 1)
		newRoot.Entries = append(newRoot.Entries, t.entryFor(oldRoot), *splitEntry)
		t.store.Update(newRoot)
		t.root = newRoot.ID
		t.height++
	}
}

func oracleInsertAt(t *Tree, n *Node, e Entry, level int) *Entry {
	if n.Level == level {
		n.Entries = append(n.Entries, e)
		if len(n.Entries) > t.cfg.MaxEntries {
			return t.overflowTreatment(n)
		}
		t.store.Update(n)
		return nil
	}
	idx := t.chooseSubtree(n, e)
	child := t.store.Get(n.Entries[idx].Child)
	splitEntry := oracleInsertAt(t, child, e, level)
	t.refreshEntry(&n.Entries[idx], child)
	if splitEntry != nil {
		n.Entries = append(n.Entries, *splitEntry)
		if len(n.Entries) > t.cfg.MaxEntries {
			return t.overflowTreatment(n)
		}
	}
	t.store.Update(n)
	return nil
}

func oracleDelete(t *Tree, r geom.Rect, obj ObjectID) bool {
	orphans, ok := t.remove(r, obj)
	if !ok {
		return false
	}
	for _, o := range orphans {
		oracleInsertTopLevel(t, o.e, o.level)
	}
	t.collapseRoot()
	return true
}

// treeHashSeed makes treeHash values comparable within one test run.
var treeHashSeed = maphash.MakeSeed()

// treeHash hashes root, height, size and every page in walk order: id,
// level, then per entry the coordinate bits, the sphere bits, child,
// object and count.
func treeHash(t *Tree) uint64 {
	var h maphash.Hash
	h.SetSeed(treeHashSeed)
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	floats := func(p geom.Point) {
		for _, v := range p {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(t.root))
	u64(uint64(t.height))
	u64(uint64(t.size))
	t.Walk(func(n *Node, _ int) bool {
		u64(uint64(n.ID))
		u64(uint64(n.Level))
		u64(uint64(len(n.Entries)))
		for _, e := range n.Entries {
			floats(e.Rect.Lo)
			floats(e.Rect.Hi)
			floats(e.Sphere.Center)
			u64(math.Float64bits(e.Sphere.Radius))
			u64(uint64(e.Child))
			u64(uint64(e.Object))
			u64(uint64(e.Count))
		}
		h.Write(b)
		b = b[:0]
		return true
	})
	h.Write(b)
	return h.Sum64()
}

// zeroTieOnPath reports whether the insert of e would meet an entry on
// its descent whose rectangle ties one of e's coordinates as a zero of
// the other sign: where growEntry recomputes the cover, if nothing on
// the way splits or reinserts.
func zeroTieOnPath(t *Tree, e Entry) bool {
	for n := t.store.Get(t.root); n.Level > 0; {
		pe := n.Entries[t.chooseSubtree(n, e)]
		for a := range e.Rect.Lo {
			if zeroTie(e.Rect.Lo[a], pe.Rect.Lo[a]) || zeroTie(e.Rect.Hi[a], pe.Rect.Hi[a]) {
				return true
			}
		}
		n = t.store.Get(pe.Child)
	}
	return false
}

// TestInsertMatchesRefreshOracle runs the same script of inserts and
// deletes on a tree and on the oracle and compares the two trees after
// every operation. The signed-zero script puts −0 and +0 on the cover
// boundaries, so that growEntry's fallback is taken — and the test
// makes sure it was.
func TestInsertMatchesRefreshOracle(t *testing.T) {
	type op struct {
		p   geom.Point
		obj ObjectID
		del bool
	}
	// gaussian8 inserts n 8-d Gaussian points (900, 300 with -short) and,
	// from the n/3-th on, deletes the oldest live one after every second
	// insert.
	n := 900
	if testing.Short() {
		n = 300
	}
	gaussian8 := func() []op {
		rnd := rand.New(rand.NewSource(35))
		var ops []op
		var pts []geom.Point
		deleted := 0
		for i := 0; i < n; i++ {
			p := make(geom.Point, 8)
			for a := range p {
				p[a] = 0.5 + 0.15*rnd.NormFloat64()
			}
			pts = append(pts, p)
			ops = append(ops, op{p: p, obj: ObjectID(i)})
			if i >= n/3 && i%2 == 0 {
				ops = append(ops, op{p: pts[deleted], obj: ObjectID(deleted), del: true})
				deleted++
			}
		}
		return ops
	}
	// signedZeros inserts 600 2-d points from the grid {±0, 1, 2, 3}²
	// (each zero's sign drawn) and deletes a random live one after every
	// fifth insert.
	signedZeros := func() []op {
		rnd := rand.New(rand.NewSource(36))
		var ops []op
		var live []op
		for i := 0; i < 600; i++ {
			p := geom.Point{float64(rnd.Intn(4)), float64(rnd.Intn(4))}
			for a := range p {
				if p[a] == 0 && rnd.Intn(2) == 0 {
					p[a] = math.Copysign(0, -1)
				}
			}
			ins := op{p: p, obj: ObjectID(i)}
			ops = append(ops, ins)
			live = append(live, ins)
			if i%5 == 4 {
				j := rnd.Intn(len(live))
				ops = append(ops, op{p: live[j].p, obj: live[j].obj, del: true})
				live = append(live[:j], live[j+1:]...)
			}
		}
		return ops
	}
	for _, script := range []struct {
		name  string
		dim   int
		maxM  int
		ops   []op
		zeros bool
	}{
		{"gaussian-8d", 8, 12, gaussian8(), false},
		{"signed-zeros-2d", 2, 5, signedZeros(), true},
	} {
		for _, mode := range oracleModes {
			t.Run(script.name+"/"+mode.name, func(t *testing.T) {
				cfg := Config{Dim: script.dim, MaxEntries: script.maxM}
				mode.set(&cfg)
				tr, oracle := mustTree(t, cfg), mustTree(t, cfg)
				fallbacks := 0
				for i, o := range script.ops {
					r := geom.PointRect(o.p)
					if o.del {
						if tr.Delete(r, o.obj) != oracleDelete(oracle, r, o.obj) {
							t.Fatalf("op %d: Delete and the oracle disagree on object %d", i, o.obj)
						}
					} else {
						tie := !cfg.UseSpheres && zeroTieOnPath(tr, LeafEntry(r, o.obj))
						restructures := tr.restructures
						if err := errors.Join(tr.Insert(r, o.obj), oracleInsert(oracle, r, o.obj)); err != nil {
							t.Fatal(err)
						}
						if tie && tr.restructures == restructures {
							fallbacks++
						}
					}
					if got, want := treeHash(tr), treeHash(oracle); got != want {
						t.Fatalf("op %d (%+v): tree hash %x, oracle %x", i, o, got, want)
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if script.zeros && !cfg.UseSpheres && fallbacks < 10 {
					t.Errorf("%d plain inserts met a signed-zero tie: the fallback was hardly taken", fallbacks)
				}
				t.Logf("%d ops, height %d, %d pages, %d signed-zero fallbacks", len(script.ops), tr.Height(), tr.store.Len(), fallbacks)
			})
		}
	}
}
