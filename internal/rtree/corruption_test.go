package rtree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// buildCorruptible grows a tree tall enough to have internal nodes, so
// each corruption below can target a directory entry.
func buildCorruptible(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(Config{Dim: 2, MaxEntries: 4, MinEntries: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p := geom.Point{float64(i % 8), float64(i / 8)}
		if err := tr.InsertPoint(p, ObjectID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("tree too shallow to corrupt: height %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("healthy tree fails invariants: %v", err)
	}
	return tr
}

// root returns the root node via the store, which hands back the live
// *Node — mutating it corrupts the tree in place.
func rootNode(t *testing.T, tr *Tree) *Node {
	t.Helper()
	n := tr.Store().Get(tr.Root())
	if n == nil {
		t.Fatalf("root %d not in store", tr.Root())
	}
	return n
}

// TestCheckInvariantsDetectsStaleMBR widens a directory entry's MBR so
// it no longer equals the exact cover of its child.
func TestCheckInvariantsDetectsStaleMBR(t *testing.T) {
	tr := buildCorruptible(t)
	root := rootNode(t, tr)
	root.Entries[0].Rect.Hi[0] += 1.5
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a stale parent MBR")
	}
	if !strings.Contains(err.Error(), "stale MBR") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsSignedZeroMBR flips one +0 corner of a
// directory entry to −0: numerically the same cover, but not the bytes
// the page image and the identity hashes hold.
func TestCheckInvariantsDetectsSignedZeroMBR(t *testing.T) {
	tr := buildCorruptible(t)
	root := rootNode(t, tr)
	for i := range root.Entries {
		r := root.Entries[i].Rect
		for a, v := range r.Lo {
			if v != 0 || math.Signbit(v) {
				continue
			}
			flipped := r.Clone()
			flipped.Lo[a] = math.Copysign(0, -1)
			if !flipped.Equal(r) {
				t.Fatal("−0 and +0 compare unequal: the case this test is for cannot arise")
			}
			root.Entries[i].Rect = flipped
			err := tr.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants accepted a cover that differs from its child's in the sign of a zero")
			}
			if !strings.Contains(err.Error(), "stale MBR") {
				t.Fatalf("wrong violation reported: %v", err)
			}
			return
		}
	}
	t.Fatal("no root entry has a +0 corner to flip")
}

// TestCheckInvariantsDetectsWrongCount breaks the SIGMOD'98 subtree
// object counter a directory entry carries.
func TestCheckInvariantsDetectsWrongCount(t *testing.T) {
	tr := buildCorruptible(t)
	root := rootNode(t, tr)
	root.Entries[0].Count++
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a wrong subtree count")
	}
	if !strings.Contains(err.Error(), "subtree objects") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsUnderfilledNode strips a non-root node below
// the minimum fill (fixing up the parent's MBR and count so the fill
// violation is the first one encountered).
func TestCheckInvariantsDetectsUnderfilledNode(t *testing.T) {
	tr := buildCorruptible(t)
	root := rootNode(t, tr)
	child := tr.Store().Get(root.Entries[0].Child)
	child.Entries = child.Entries[:1]
	// Patch the parent entry to match the truncated child, so the fill
	// violation is the first one the walk encounters.
	root.Entries[0].Rect = child.MBR()
	root.Entries[0].Count = child.Entries[0].Count
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted an under-filled node")
	}
	if !strings.Contains(err.Error(), "below minimum") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsLevelSkew rewrites a child's level so levels
// no longer decrease by one per step.
func TestCheckInvariantsDetectsLevelSkew(t *testing.T) {
	tr := buildCorruptible(t)
	root := rootNode(t, tr)
	tr.Store().Get(root.Entries[0].Child).Level++
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a level skew")
	}
	if !strings.Contains(err.Error(), "child level") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsSizeDrift removes a leaf entry (fixing the
// ancestors' MBRs and counts is deliberately skipped: the count check
// fires before the size check, so drop the whole subtree bookkeeping by
// editing the leaf through the parent chain) — the recorded size then
// disagrees with the actual number of leaf entries.
func TestCheckInvariantsDetectsSizeDrift(t *testing.T) {
	tr := buildCorruptible(t)
	tr.size++ // simulate a lost insert/delete accounting bug
	err := tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a size drift")
	}
	if !strings.Contains(err.Error(), "recorded size") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsMissingSphere erases a directory sphere in
// SR mode.
func TestCheckInvariantsDetectsMissingSphere(t *testing.T) {
	tr, err := New(Config{Dim: 2, MaxEntries: 4, UseSpheres: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p := geom.Point{float64(i % 8), float64(i / 8)}
		if err := tr.InsertPoint(p, ObjectID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("healthy SR-tree fails invariants: %v", err)
	}
	root := rootNode(t, tr)
	root.Entries[0].Sphere = geom.Sphere{}
	err = tr.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a missing sphere in SR mode")
	}
	if !strings.Contains(err.Error(), "missing sphere") {
		t.Fatalf("wrong violation reported: %v", err)
	}
}

// TestCheckInvariantsDetectsLeafRectangle widens a leaf point into a
// rectangle, and gives another a sphere: a leaf holds points only.
func TestCheckInvariantsDetectsLeafRectangle(t *testing.T) {
	for _, c := range []struct {
		name, want string
		spoil      func(e *Entry)
	}{
		{"rectangle", "rectangle", func(e *Entry) { e.Rect = geom.NewRect(e.Rect.Lo, geom.Point{e.Rect.Lo[0] + 1, e.Rect.Lo[1]}) }},
		{"sphere", "a sphere on a leaf point", func(e *Entry) { e.Sphere = geom.Sphere{Center: e.Rect.Lo} }},
	} {
		tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
		for i := 0; i < 5; i++ {
			if err := tr.InsertPoint(geom.Point{float64(i), 0}, ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		c.spoil(&rootNode(t, tr).Entries[2])
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want a violation naming %q", c.name, err, c.want)
		}
	}
}
