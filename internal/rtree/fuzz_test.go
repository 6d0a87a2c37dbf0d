package rtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
)

// FuzzRTreeOps drives a tree through a byte-coded op sequence (insert,
// delete, k-NN) alongside a plain map model, checking after every
// structural change that CheckInvariants passes, that the tree and the
// model agree on cardinality, and that NearestNeighbors returns exactly
// the model's k smallest distances. Coordinates come from a small
// integer grid so duplicate points and distance ties are common — the
// comparison is on sorted distance multisets, not object order, which
// ties legitimately permute.
//
// With bit 0x40 of cfgByte set, every structural op is preceded by the
// insert of a point no tree may hold — a NaN or an infinity on one
// axis — which must fail and leave the tree as it was (a NaN used to
// panic in ChooseSubtree, an infinity to poison every ancestor MBR) —
// or a finite one just outside CoordBound, on either side.
//
// With bit 0x80 of cfgByte set, the grid is stretched over the whole
// accepted range: coordinate c becomes (c−8)/8 · CoordBound, so the
// tree's areas, margins and overlap sums come as close to overflowing
// as the bound lets them (such coordinates used to panic the split).
//
// A coordinate byte with bit 0x10 set that decodes to 0 decodes to −0:
// the grid then holds both zeros, and a cover whose corner is one of
// them must keep the bits its child's entries give it (CheckInvariants
// compares covers bit for bit).
//
// With bit 0x80 of dimByte set, the leaves have a larger capacity than
// the directory nodes, as the page layout gives them: a leaf splits,
// condenses and is checked at its own capacity and minimum fill.
func FuzzRTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 2, 0, 3, 0, 1, 1, 7}, byte(2), byte(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 3, 2, 2, 8}, byte(1), byte(1))
	f.Add([]byte{2, 0, 2, 1}, byte(3), byte(2)) // deletes on an empty tree
	// Non-finite rectangles between the ops; duplicates and collinear
	// points (every area 0) so that ChooseSubtree decides on exact ties.
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 2, 0, 3, 0, 1, 1, 7}, byte(2), byte(0x40))
	f.Add([]byte{0, 5, 5, 0, 5, 5, 0, 5, 5, 0, 5, 5, 0, 5, 5, 0, 5, 5, 0, 5, 5, 1, 5, 5, 2, 0, 3, 5, 5, 9}, byte(1), byte(0x40))
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 0, 8, 8, 0, 9, 9, 0, 3, 3, 2, 1}, byte(1), byte(0x41))
	// Coordinates at the bound, corners included, and poison just past it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 15, 15, 0, 15, 0, 0, 0, 15, 0, 8, 8, 0, 3, 12, 0, 12, 3, 0, 7, 9,
		0, 1, 14, 0, 14, 1, 0, 0, 15, 0, 15, 15, 2, 1, 3, 0, 4, 2, 3, 2, 2, 3, 15, 15, 4}, byte(1), byte(0xC0))
	f.Add([]byte{0, 0, 0, 0, 15, 15, 0, 0, 15, 0, 15, 0, 0, 5, 9, 0, 9, 5, 0, 2, 2, 0, 13, 13, 0, 6, 6,
		0, 11, 4, 0, 4, 11, 0, 1, 1, 2, 0, 3, 8, 8, 3}, byte(2), byte(0xA4))
	// Both zeros on both axes: '0' is 0x30, a −0 coordinate, and '1' a
	// 1 — a 2-d script whose covers meet −0 against +0 (it found a cover
	// grown by old ∪ new that kept the wrong zero). The same in SR mode.
	f.Add([]byte("000000010010001001001010001001000000200"), byte(1), byte(0))
	f.Add([]byte("000000010010001001001010001001000000200"), byte(1), byte(0x20))
	// Leaves of 5 to 10 entries under directory nodes of 4 to 8.
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 2, 0, 3, 0, 1, 1, 7, 0, 9, 9, 0, 8, 1, 0, 2, 7, 0, 4, 4, 2, 1, 3, 2, 2}, byte(0x81), byte(0))
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 0, 8, 8, 0, 9, 9, 0, 3, 3, 2, 1,
		0, 10, 1, 0, 11, 2, 0, 12, 3, 2, 5, 2, 6, 2, 7, 3, 4, 4, 2}, byte(0x99), byte(0x41))
	f.Add([]byte("000000010010001001001010001001000000200"), byte(0xA1), byte(0xC2))
	f.Fuzz(func(t *testing.T, ops []byte, dimByte, cfgByte byte) {
		dim := 1 + int(dimByte)%3
		cfg := Config{Dim: dim, MaxEntries: 4 + int(cfgByte)%5}
		if cfgByte&0x20 != 0 {
			cfg.UseSpheres = true
		}
		if dimByte&0x80 != 0 {
			cfg.LeafMaxEntries = cfg.MaxEntries + 1 + int(dimByte>>3)%6
		}
		tr, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}

		model := map[ObjectID]geom.Point{}
		var live []ObjectID // insertion-ordered live IDs, for delete picks
		nextObj := ObjectID(1)

		pos := 0
		next := func() byte {
			if pos >= len(ops) {
				return 0
			}
			b := ops[pos]
			pos++
			return b
		}
		bound := tr.CoordBound()
		point := func() geom.Point {
			p := make(geom.Point, dim)
			for d := range p {
				b := next()
				p[d] = float64(b % 16)
				if cfgByte&0x80 != 0 {
					p[d] = (p[d] - 8) / 8 * bound
				}
				if b&0x10 != 0 && p[d] == 0 {
					p[d] = math.Copysign(0, -1)
				}
			}
			return p
		}
		poison := func(n int) {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = 3
			}
			axis := n % dim
			switch (n / dim) % 5 {
			case 0:
				p[axis] = math.NaN()
			case 1:
				p[axis] = math.Inf(1)
			case 2:
				p[axis] = math.Inf(-1)
			case 3:
				p[axis] = math.Nextafter(bound, math.Inf(1))
			case 4:
				p[axis] = -math.Nextafter(bound, math.Inf(1))
			}
			if err := tr.InsertPoint(p, -1); err == nil {
				t.Fatalf("InsertPoint accepted %v", p)
			}
		}
		structural := 0
		for pos < len(ops) && structural < 512 {
			if cfgByte&0x40 != 0 {
				poison(structural) // the checks below see an unchanged tree
			}
			switch next() % 4 {
			case 0, 1: // insert
				p := point()
				id := nextObj
				nextObj++
				if err := tr.InsertPoint(p, id); err != nil {
					t.Fatalf("InsertPoint(%v, %d): %v", p, id, err)
				}
				model[id] = p
				live = append(live, id)
				structural++
			case 2: // delete (a live object, or a guaranteed miss)
				sel := int(next())
				if len(live) == 0 || sel%4 == 3 {
					if tr.DeletePoint(point(), nextObj) {
						t.Fatalf("DeletePoint reported success for never-inserted object %d", nextObj)
					}
					continue
				}
				i := sel % len(live)
				id := live[i]
				if !tr.DeletePoint(model[id], id) {
					t.Fatalf("DeletePoint(%v, %d) failed for a live object", model[id], id)
				}
				delete(model, id)
				live = append(live[:i], live[i+1:]...)
				structural++
			case 3: // k-NN against the model
				q := point()
				k := 1 + int(next())%6
				checkKNN(t, tr, model, q, k)
				continue
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated after op %d: %v", structural, err)
			}
			if tr.Len() != len(model) {
				t.Fatalf("tree size %d, model size %d", tr.Len(), len(model))
			}
		}

		// Closing sweep: full-cardinality k-NN from the origin.
		checkKNN(t, tr, model, make(geom.Point, dim), len(model)+1)
	})
}

// checkKNN compares NearestNeighbors against brute force over the
// model. Ties make object order unspecified, so it compares the sorted
// squared-distance sequences, which are exact: the tree computes leaf
// distances with the point kernel, term-for-term the same arithmetic as
// Point.DistSq.
func checkKNN(t *testing.T, tr *Tree, model map[ObjectID]geom.Point, q geom.Point, k int) {
	t.Helper()
	got, _ := tr.NearestNeighbors(q, k)
	want := make([]float64, 0, len(model))
	for _, p := range model {
		want = append(want, q.DistSq(p))
	}
	sort.Float64s(want)
	if k < len(want) {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("k-NN(q=%v, k=%d) returned %d results, want %d", q, k, len(got), len(want))
	}
	for i, n := range got {
		if i > 0 && got[i-1].DistSq > n.DistSq {
			t.Fatalf("k-NN results not sorted: DistSq[%d]=%g > DistSq[%d]=%g",
				i-1, got[i-1].DistSq, i, n.DistSq)
		}
		if n.DistSq != want[i] {
			t.Fatalf("k-NN distance %d: got %g, want %g (q=%v)", i, n.DistSq, want[i], q)
		}
		if p, ok := model[n.Object]; !ok {
			t.Fatalf("k-NN returned unknown object %d", n.Object)
		} else if d := q.DistSq(p); d != n.DistSq {
			t.Fatalf("k-NN object %d reported DistSq %g, actual %g", n.Object, n.DistSq, d)
		}
	}
}
