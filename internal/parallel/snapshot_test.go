package parallel

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/decluster"
	"repro/internal/rtree"
)

func TestSnapshotRoundTrip(t *testing.T) {
	for _, spheres := range []bool{false, true} {
		orig, err := New(Config{
			Dim: 2, NumDisks: 6, Cylinders: 1449, MaxEntries: 16,
			Policy: decluster.ProximityIndex{}, Seed: 5, UseSpheres: spheres,
		})
		if err != nil {
			t.Fatal(err)
		}
		pts := randPoints(101, 2500, 2)
		if err := orig.BuildPoints(pts); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := orig.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}

		if loaded.Len() != orig.Len() {
			t.Fatalf("spheres=%v: size %d vs %d", spheres, loaded.Len(), orig.Len())
		}
		if loaded.Height() != orig.Height() || loaded.Root() != orig.Root() {
			t.Error("structure metadata differs")
		}
		if loaded.NumDisks() != 6 || loaded.Config().UseSpheres != spheres {
			t.Error("config not restored")
		}

		// Every page identical in placement and content.
		orig.Walk(func(n *rtree.Node, _ int) bool {
			ln := loaded.Store().Get(n.ID)
			if ln.Level != n.Level || len(ln.Entries) != len(n.Entries) {
				t.Fatalf("page %d shape differs", n.ID)
			}
			for i := range n.Entries {
				a, b := n.Entries[i], ln.Entries[i]
				if !a.Rect.Equal(b.Rect) || a.Child != b.Child || a.Object != b.Object || a.Count != b.Count {
					t.Fatalf("page %d entry %d differs", n.ID, i)
				}
			}
			po, _ := orig.Placement(n.ID)
			pl, _ := loaded.Placement(n.ID)
			if po != pl {
				t.Fatalf("page %d placement %v vs %v", n.ID, po, pl)
			}
			return true
		})

		// Queries over the loaded tree behave identically.
		q := pts[100]
		a, _ := orig.NearestNeighbors(q, 15)
		b, _ := loaded.NearestNeighbors(q, 15)
		for i := range a {
			if a[i].DistSq != b[i].DistSq {
				t.Fatal("kNN differs after reload")
			}
		}

		// The loaded tree accepts further mutations.
		extra := randPoints(102, 300, 2)
		for i, p := range extra {
			if err := loaded.InsertPoint(p, rtree.ObjectID(100000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := loaded.Tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := loaded.CheckPlacements(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := LoadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty input")
	}
	// Corrupt version.
	orig, _ := New(Config{Dim: 2, NumDisks: 2, Cylinders: 100, MaxEntries: 8, Seed: 1})
	_ = orig.BuildPoints(randPoints(103, 50, 2))
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99
	if _, err := LoadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Error("accepted bad version")
	}
	// Truncated body.
	raw[4] = 1
	if _, err := LoadSnapshot(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("accepted truncated snapshot")
	}
	// A second page longer than the first: every page is one page long.
	first := 4 + 1 + 13 + 1 + len(orig.policy.Name()) + 24
	size := int(binary.LittleEndian.Uint32(raw[first+14:]))
	binary.LittleEndian.PutUint32(raw[first+18+size+14:], uint32(size+8))
	if _, err := LoadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "encoded length") {
		t.Errorf("pages of two lengths: err = %v", err)
	}
}
