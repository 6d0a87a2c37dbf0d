package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// The write path may get cheaper; it may not build a different tree.
// These goldens were recorded at the commit before ChooseSubtree's
// pruning and the split sweeps went in (PR 19, f4d14b0): any change to
// which page an entry lands on, which id a page gets, the order of a
// page's entries or the disk a page is placed on changes a hash.

// treeHash is SHA-256 over root, height, size and every page in walk
// order: id, level, placement, then per entry the coordinate bits, the
// sphere bits (SR mode), child, object and count. Unlike Snapshot it
// also covers X-tree supernodes, which no page image holds.
func treeHash(t *Tree) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	floats := func(p geom.Point) {
		for _, v := range p {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(t.Root()))
	u64(uint64(t.Height()))
	u64(uint64(t.Len()))
	t.Walk(func(n *rtree.Node, _ int) bool {
		pl, _ := t.Placement(n.ID)
		u64(uint64(n.ID))
		u64(uint64(n.Level))
		u64(uint64(pl.Disk))
		u64(uint64(pl.Cylinder))
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
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

func snapshotHash(t *testing.T, tree *Tree) string {
	t.Helper()
	h := sha256.New()
	if err := tree.Snapshot(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func identityConfig(dim int) Config {
	return Config{Dim: dim, NumDisks: 10, Cylinders: disk.HPC2200A().Cylinders,
		Policy: decluster.ProximityIndex{}, Seed: 1}
}

func buildIdentityTree(t *testing.T, cfg Config, pts []geom.Point) *Tree {
	t.Helper()
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSnapshotIdentity pins the two hashes the benchmark's own builds
// were measured to have at the parent commit.
func TestSnapshotIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8 000 + 12 000 points")
	}
	for _, c := range []struct {
		name string
		pts  []geom.Point
		want string
	}{
		{"california-2d", dataset.CaliforniaLike(8000, 1998), "6e6f87326efc50ef7ba55149e2a1819d5366ef589002bb326f9b42374c39fd15"},
		{"gaussian-8d", dataset.Gaussian(12000, 8, 1998), "12b5185ebe7f7cab22558988a3b400ebe03aa786610bfb5b889079186d380c36"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree := buildIdentityTree(t, identityConfig(len(c.pts[0])), c.pts)
			if got := snapshotHash(t, tree); got != c.want {
				t.Errorf("Snapshot SHA-256 = %s, want %s", got, c.want)
			}
		})
	}
}

// TestTreeIdentity pins the built tree, and the tree after a fixed
// script of inserts and deletes, in R*, SR and X modes on a 2-d and an
// 8-d data set.
func TestTreeIdentity(t *testing.T) {
	type golden struct{ built, scripted string }
	want := map[string]golden{
		"rstar/california-2d": {
			"19aad2c326172f480c358db1c8ec718f6b994f406f03e77fc2fe207b7251d370",
			"1a2935f430691a8ee959aa2ddee70b15b08989d89d178ac1bdf4cedb1b1e6e21"},
		"rstar/gaussian-8d": {
			"1c7ea41e6c3896fe5ed247ed494901c2c7acb8cb57d63c5dd617b49bbbe124b0",
			"373554f2fc17ffc95c455c625d4629d89324c758a8131bc7ee52a21021607ec2"},
		"sr/california-2d": {
			"5d0cad1a79021f23f9ea45af2168a2ab2bba98f1c92504e1a4e7fd1eca1ac2b9",
			"694b5c9563d236580c333ac492201ef00563c04645d1795e834cf61db73c8755"},
		"sr/gaussian-8d": {
			"e2f3c81d7a58e80a2fddac91ace7b7f6b51841f8682fe34102b5fd1864271b0b",
			"7b313c2cffcffe1597fd3969d973c8aa49cc18704a41e0258c442a4d8dfbc722"},
		"x/california-2d": {
			"0fb3f4896d9c0de3ae987712e99dc5832272528c33392723a02615bdc1397441",
			"98b18162c92dac056f64c3e1067e64b6fb5fc926acfa8a801f3018e544542e1c"},
		"x/gaussian-8d": {
			"15b5c8ff0ade31d225a9038e8572c47dbad08ddcf00fb0fb75f949654aa75b80",
			"27f98db9e08834acd3380746c2ac98de878d6262a85e2c2e19dab860483e7713"},
		// Recorded at ed0b08b, before NodeCreated computed sibling MBRs
		// into scratch.
		"minoverlap/california-2d": {
			"fd39fbf305f5ca98ede30a506cdcd57ae42c495b58fe21169ba95fbd9cc2f813",
			"80933af32cf33134906254c4cc2b218558a143902e457b65a6700bda7bdb951f"},
		"minoverlap/gaussian-8d": {
			"5228b188fd51458269b73c857f13e9b8050208078b4ab6a550a9dbfbff8ff0b0",
			"ec56129ce2159143b6844d64aab053c5856dfbe3e164d55f64eea36a71e7b996"},
	}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"rstar", func(*Config) {}},
		{"sr", func(c *Config) { c.UseSpheres = true }},
		// A small fanout and a strict ratio, so that directory nodes
		// overflow at these sizes and the split-or-supernode rule refuses
		// some splits and grants others.
		{"x", func(c *Config) { c.MaxOverlapRatio, c.MaxEntries = 0.05, 8 }},
		// The other policy that reads sibling rectangles.
		{"minoverlap", func(c *Config) { c.Policy = decluster.MinOverlap{} }},
	}
	sets := []struct {
		name string
		pts  []geom.Point
	}{
		{"california-2d", dataset.CaliforniaLike(3000, 1998)},
		{"gaussian-8d", dataset.Gaussian(2500, 8, 1998)},
	}
	for _, m := range modes {
		for _, s := range sets {
			name := m.name + "/" + s.name
			t.Run(name, func(t *testing.T) {
				cfg := identityConfig(len(s.pts[0]))
				m.set(&cfg)
				// The last fifth of the points arrives through the script.
				base := len(s.pts) * 4 / 5
				tree := buildIdentityTree(t, cfg, s.pts[:base])
				built := treeHash(tree)

				// Script: two inserts, then one delete. The victims are the
				// built objects in order of their first coordinate, so whole
				// leaves run underfull and dissolve.
				victims := make([]int, base)
				for i := range victims {
					victims[i] = i
				}
				sort.SliceStable(victims, func(a, b int) bool { return s.pts[victims[a]][0] < s.pts[victims[b]][0] })
				for i := base; i < len(s.pts); i++ {
					if err := tree.InsertPoint(s.pts[i], rtree.ObjectID(i)); err != nil {
						t.Fatal(err)
					}
					if (i-base)%2 == 1 {
						v := victims[(i-base)/2]
						if !tree.DeletePoint(s.pts[v], rtree.ObjectID(v)) {
							t.Fatalf("delete of live object %d failed", v)
						}
					}
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := tree.CheckPlacements(); err != nil {
					t.Fatal(err)
				}
				if m.name == "x" && cfg.Dim == 8 {
					supers := 0
					tree.Walk(func(n *rtree.Node, _ int) bool {
						if n.Pages(cfg.MaxEntries) > 1 {
							supers++
						}
						return true
					})
					if supers == 0 {
						t.Error("no supernode formed: the X-tree golden pins nothing the R* one does not")
					}
				}
				got := golden{built, treeHash(tree)}
				if got != want[name] {
					t.Errorf("%s: tree hashes\n got {%q, %q}\nwant {%q, %q}",
						name, got.built, got.scripted, want[name].built, want[name].scripted)
				}
			})
		}
	}
}
