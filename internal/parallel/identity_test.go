package parallel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// The write path may get cheaper; it may not build a different tree.
// These goldens were recorded at the commit before ChooseSubtree's
// pruning and the split sweeps went in (PR 19, f4d14b0): any change to
// which page an entry lands on, which id a page gets, the order of a
// page's entries or the disk a page is placed on changes a hash.

// treeHash is SHA-256 over root, height, size and every page in walk
// order: id, level, placement, then per entry the coordinate bits, the
// sphere bits (SR mode), child, object and count. Unlike snapshotHash
// it also covers X-tree supernodes, which no page image holds.
func treeHash(t *parallel.Tree) string {
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

// snapshotHash is SHA-256 over the byte stream the snapshot format,
// deleted when the durable directory began to keep placements, wrote
// for tree: the reference its two goldens were recorded against.
//
//	magic "SQTR", version 1
//	uint16 dim | uint16 numDisks | uint32 cylinders
//	uint16 maxEntries | uint16 minEntries | uint8 spheres
//	policy name (uint8 length + bytes)
//	int64 seed | uint64 root page | uint32 object count | uint32 pages
//	per page, in walk order: uint64 id | uint16 disk | uint32 cylinder |
//	          uint32 encoded length | the page encoded at cfg.PageSize
//
// The format held every page in the rectangle layout, leaves too:
// snapshotPage writes a leaf that way.
func snapshotHash(t *testing.T, tree *parallel.Tree) string {
	t.Helper()
	cfg := tree.Config()
	var nodes []*rtree.Node
	tree.Walk(func(n *rtree.Node, _ int) bool {
		nodes = append(nodes, n)
		return true
	})
	b := []byte("SQTR\x01")
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.Dim))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.NumDisks))
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.Cylinders))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.MaxEntries))
	b = binary.LittleEndian.AppendUint16(b, 0) // the minimum fill, always the R* default
	b = append(b, 0)
	if cfg.UseSpheres {
		b[len(b)-1] = 1
	}
	b = append(b, byte(len(cfg.Policy.Name())))
	b = append(b, cfg.Policy.Name()...)
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.Seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(tree.Root()))
	b = binary.LittleEndian.AppendUint32(b, uint32(tree.Len()))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	codec := cfg.Codec()
	for _, n := range nodes {
		img, err := codec.Encode(n)
		if n.IsLeaf() && !cfg.UseSpheres {
			img = snapshotLeaf(cfg, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := tree.Placement(n.ID)
		b = binary.LittleEndian.AppendUint64(b, uint64(n.ID))
		b = binary.LittleEndian.AppendUint16(b, uint16(pl.Disk))
		b = binary.LittleEndian.AppendUint32(b, uint32(pl.Cylinder))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(img)))
		b = append(b, img...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// snapshotLeaf is a leaf of a tree of point leaves as the snapshot
// format wrote it, in the rectangle layout of directory pages (page
// version 1): per entry the point as its low and high corner, the
// object id and a count of 1.
func snapshotLeaf(cfg parallel.Config, n *rtree.Node) []byte {
	b := make([]byte, cfg.PageSize)
	b[0], b[1] = 0xA5, 1
	binary.LittleEndian.PutUint16(b[4:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint16(b[6:], uint16(cfg.Dim))
	binary.LittleEndian.PutUint64(b[8:], uint64(n.ID))
	off := 16
	for _, e := range n.Entries {
		for _, v := range append(slices.Clone(e.Rect.Lo), e.Rect.Hi...) {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
		binary.LittleEndian.PutUint64(b[off:], uint64(e.Object))
		binary.LittleEndian.PutUint32(b[off+8:], uint32(e.Count))
		off += 12
	}
	return b
}

// reopened builds pts into a tree over a durable store in a fresh
// directory, commits it, closes the store and returns the tree Open
// restores from the directory.
func reopened(t *testing.T, cfg parallel.Config, pts []geom.Point) *parallel.Tree {
	t.Helper()
	dir := t.TempDir()
	codec := pagestore.Codec{Dim: cfg.Dim, PageSize: 4096, Spheres: cfg.UseSpheres}
	ds, err := pagestore.OpenDurable(dir, codec, pagestore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	built := cfg
	built.Store = ds
	tree := buildIdentityTree(t, built, pts)
	if err := errors.Join(tree.Commit(ds), ds.Close()); err != nil {
		t.Fatal(err)
	}
	if ds, err = pagestore.OpenDurable(dir, codec, pagestore.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	tree, err = parallel.Open(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// identityConfig is the array of the identity goldens at the capacity
// they were recorded at: the paper's, a page of rectangle entries, for
// leaves and directory nodes alike.
func identityConfig(dim int) parallel.Config {
	return parallel.Config{Dim: dim, NumDisks: 10, Cylinders: disk.HPC2200A().Cylinders,
		MaxEntries: pagestore.Codec{Dim: dim, PageSize: 4096}.Capacity(1),
		Policy:     decluster.ProximityIndex{}, Seed: 1}
}

// spheres selects the SR tree at its derived capacity: a page of sphere
// entries, leaves and directory nodes alike.
func spheres(c *parallel.Config) { c.UseSpheres, c.MaxEntries = true, 0 }

// pageCapacities derives each level's capacity from its page layout, as
// every tree but the paper's experiments does: a leaf of points holds
// more entries than a directory page of rectangles.
func pageCapacities(c *parallel.Config) { c.MaxEntries = 0 }

func buildIdentityTree(t *testing.T, cfg parallel.Config, pts []geom.Point) *parallel.Tree {
	t.Helper()
	tree, err := parallel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSnapshotIdentity pins the two hashes recorded for the benchmark's
// own builds, now of the tree a durable directory gives back: a reopen
// restores every page and its placement.
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
			tree := reopened(t, identityConfig(len(c.pts[0])), c.pts)
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
		// Recorded when the point-leaf layout went in: leaves of points
		// at their own capacity, the directory at the rectangles'.
		"points/california-2d": {
			"5b5353d2b11812408230f0431357d35f5e502efc1a7fae0ecdd57e9d3ce6d421",
			"a88b844b1deb301cc20d27085d90fc6bf761b6a084a1690dbf6276ba3ff392da"},
		"points/gaussian-8d": {
			"4c41115c88ceaaf56fc2b689025f6ed3732682d50b52e7777ba245f56288230b",
			"8b5c9306fd078a4c8e9ccce211cfe7831fc53f578850cbfbda1287ed594f0e16"},
	}
	modes := []struct {
		name string
		set  func(*parallel.Config)
	}{
		{"rstar", func(*parallel.Config) {}},
		{"sr", spheres},
		// A small fanout and a strict ratio, so that directory nodes
		// overflow at these sizes and the split-or-supernode rule refuses
		// some splits and grants others.
		{"x", func(c *parallel.Config) { c.MaxOverlapRatio, c.MaxEntries = 0.05, 8 }},
		// The other policy that reads sibling rectangles.
		{"minoverlap", func(c *parallel.Config) { c.Policy = decluster.MinOverlap{} }},
		{"points", pageCapacities},
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

// TestPackedTreeIdentity pins STR-packed trees, whose pages are placed
// against the trailing window of pages made before them on their level
// rather than against a parent's entries. Recorded at d4169df, when
// NodeCreated still read every sibling back from the store.
func TestPackedTreeIdentity(t *testing.T) {
	want := map[string]string{
		"rstar/california-2d":      "6ca2e7b79b354c3a3f3644b2fe2351c87a21d87db7746413bc24abe9741e3c15",
		"rstar/gaussian-8d":        "e9c2d40eb8ff821a641f18090cf8f6d874db79326eb1a82bc7e183e8f0ea616d",
		"sr/gaussian-8d":           "ebac734cb915aa84e388914c4d181fca0ebe06afe7fb1bed11bb6119f12f38bf",
		"minoverlap/california-2d": "4afb75407c96e0906033b1c61b4ca00b2bc4bdc676d2e1c46782d0b1a68d4d9e",
		// Recorded when the point-leaf layout went in: STR tiles the
		// leaves at the point capacity.
		"points/gaussian-8d": "ad162d07b5921b38dc90c33fb989e544ba1993f74ec33f60150963737a145880",
	}
	for name, c := range map[string]struct {
		set func(*parallel.Config)
		pts []geom.Point
	}{
		"rstar/california-2d":      {func(*parallel.Config) {}, dataset.CaliforniaLike(3000, 1998)},
		"rstar/gaussian-8d":        {func(*parallel.Config) {}, dataset.Gaussian(2500, 8, 1998)},
		"sr/gaussian-8d":           {spheres, dataset.Gaussian(2500, 8, 1998)},
		"minoverlap/california-2d": {func(c *parallel.Config) { c.Policy = decluster.MinOverlap{} }, dataset.CaliforniaLike(3000, 1998)},
		"points/gaussian-8d":       {pageCapacities, dataset.Gaussian(2500, 8, 1998)},
	} {
		cfg := identityConfig(len(c.pts[0]))
		c.set(&cfg)
		tree, err := parallel.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BuildPointsPacked(c.pts); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckPlacements(); err != nil {
			t.Fatal(err)
		}
		if got := treeHash(tree); got != want[name] {
			t.Errorf("%s: tree hash %s, want %s", name, got, want[name])
		}
	}
}
