package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// buildTree constructs a parallel R*-tree over pts.
func buildTree(t testing.TB, pts []geom.Point, dim, disks, maxEntries int) *parallel.Tree {
	t.Helper()
	pt, err := parallel.New(parallel.Config{
		Dim:        dim,
		NumDisks:   disks,
		Cylinders:  1449,
		MaxEntries: maxEntries,
		Policy:     decluster.ProximityIndex{},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return pt
}

func allAlgorithms() []Algorithm {
	return []Algorithm{BBSS{}, FPSS{}, CRSS{}, WOPTSS{}, BFSS{}}
}

// assertMatchesBruteForce verifies that results equal the exact k-NN
// answer's distances bit for bit (object identity may differ on exact
// ties).
func assertMatchesBruteForce(t *testing.T, alg Algorithm, got []Neighbor, pts []geom.Point, q geom.Point, k int) {
	t.Helper()
	want := bruteforce.KNN(pts, q, k)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", alg.Name(), len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
			t.Fatalf("%s: rank %d dist² = %g, want %g", alg.Name(), i, got[i].DistSq, want[i].DistSq)
		}
	}
}

func TestAllAlgorithmsCorrectUniform2D(t *testing.T) {
	pts := dataset.Uniform(3000, 2, 1)
	tree := buildTree(t, pts, 2, 5, 16)
	d := Driver{Tree: tree}
	queries := dataset.SampleQueries(pts, 12, 2)
	for _, alg := range allAlgorithms() {
		for qi, q := range queries {
			for _, k := range []int{1, 5, 20, 100} {
				got, stats := d.Run(alg, q, k, Options{})
				assertMatchesBruteForce(t, alg, got, pts, q, k)
				if stats.NodesVisited <= 0 {
					t.Errorf("%s q%d k%d: no nodes visited", alg.Name(), qi, k)
				}
			}
		}
	}
}

func TestAllAlgorithmsCorrectGaussian5D(t *testing.T) {
	pts := dataset.Gaussian(2000, 5, 3)
	tree := buildTree(t, pts, 5, 10, 44)
	d := Driver{Tree: tree}
	queries := dataset.SampleQueries(pts, 8, 4)
	for _, alg := range allAlgorithms() {
		for _, q := range queries {
			for _, k := range []int{1, 10, 50} {
				got, _ := d.Run(alg, q, k, Options{})
				assertMatchesBruteForce(t, alg, got, pts, q, k)
			}
		}
	}
}

func TestAllAlgorithmsCorrectClustered10D(t *testing.T) {
	pts := dataset.Clustered(1500, 10, 12, 5)
	tree := buildTree(t, pts, 10, 8, 23)
	d := Driver{Tree: tree}
	queries := dataset.SampleQueries(pts, 6, 6)
	for _, alg := range allAlgorithms() {
		for _, q := range queries {
			got, _ := d.Run(alg, q, 15, Options{})
			assertMatchesBruteForce(t, alg, got, pts, q, 15)
		}
	}
}

func TestKLargerThanPopulation(t *testing.T) {
	pts := dataset.Uniform(50, 2, 7)
	tree := buildTree(t, pts, 2, 3, 8)
	d := Driver{Tree: tree}
	q := geom.Point{0.5, 0.5}
	for _, alg := range allAlgorithms() {
		got, _ := d.Run(alg, q, 200, Options{})
		if len(got) != 50 {
			t.Errorf("%s: got %d results, want all 50", alg.Name(), len(got))
		}
	}
}

func TestSinglePointTree(t *testing.T) {
	pts := []geom.Point{{0.3, 0.7}}
	tree := buildTree(t, pts, 2, 4, 8)
	d := Driver{Tree: tree}
	for _, alg := range allAlgorithms() {
		got, _ := d.Run(alg, geom.Point{0.1, 0.1}, 1, Options{})
		if len(got) != 1 || got[0].Object != 0 {
			t.Errorf("%s: got %+v", alg.Name(), got)
		}
	}
}

func TestQueryAtExactDataPoint(t *testing.T) {
	pts := dataset.Uniform(500, 3, 9)
	tree := buildTree(t, pts, 3, 4, 12)
	d := Driver{Tree: tree}
	for _, alg := range allAlgorithms() {
		got, _ := d.Run(alg, pts[123].Clone(), 3, Options{})
		if len(got) != 3 {
			t.Fatalf("%s: %d results", alg.Name(), len(got))
		}
		if got[0].DistSq != 0 {
			t.Errorf("%s: nearest dist² = %g, want 0", alg.Name(), got[0].DistSq)
		}
	}
}

func TestWOPTSSVisitsExactlyIntersectingPages(t *testing.T) {
	// WOPTSS must visit exactly the pages whose MBR intersects the k-NN
	// sphere (Definition 6) — no algorithm may visit fewer.
	pts := dataset.CaliforniaLike(4000, 11)
	tree := buildTree(t, pts, 2, 10, 16)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 10, 12) {
		k := 10
		dkSq := bruteforce.KthDistSq(pts, q, k)
		want := 0
		tree.Walk(func(n *rtree.Node, _ int) bool {
			if geom.MinDistSq(q, n.MBR()) <= dkSq {
				want++
			}
			return true
		})
		_, stats := d.Run(WOPTSS{}, q, k, Options{})
		if stats.NodesVisited != want {
			t.Errorf("WOPTSS visited %d pages, weak-optimal is %d", stats.NodesVisited, want)
		}
	}
}

func TestAllAlgorithmsNeverBeatWOPTSS(t *testing.T) {
	pts := dataset.Gaussian(3000, 5, 21)
	tree := buildTree(t, pts, 5, 10, 44)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 8, 22) {
		for _, k := range []int{1, 10, 50} {
			_, wopt := d.Run(WOPTSS{}, q, k, Options{})
			for _, alg := range []Algorithm{BBSS{}, FPSS{}, CRSS{}} {
				_, stats := d.Run(alg, q, k, Options{})
				if stats.NodesVisited < wopt.NodesVisited {
					t.Errorf("%s visited %d < WOPTSS %d (k=%d) — violates weak-optimal lower bound",
						alg.Name(), stats.NodesVisited, wopt.NodesVisited, k)
				}
			}
		}
	}
}

func TestBBSSHasNoIntraQueryParallelism(t *testing.T) {
	pts := dataset.Uniform(2000, 2, 31)
	tree := buildTree(t, pts, 2, 8, 16)
	d := Driver{Tree: tree}
	_, stats := d.Run(BBSS{}, geom.Point{0.5, 0.5}, 20, Options{})
	if stats.MaxParallel != 1 {
		t.Errorf("BBSS max batch = %d, want 1", stats.MaxParallel)
	}
	if stats.Batches != stats.NodesVisited {
		t.Errorf("BBSS batches %d != visits %d", stats.Batches, stats.NodesVisited)
	}
}

func TestCRSSRespectsActivationBound(t *testing.T) {
	pts := dataset.Gaussian(5000, 2, 41)
	disks := 6
	tree := buildTree(t, pts, 2, disks, 16)
	d := Driver{Tree: tree}
	for _, q := range dataset.SampleQueries(pts, 10, 42) {
		_, stats := d.Run(CRSS{}, q, 50, Options{})
		if stats.MaxParallel > disks {
			t.Errorf("CRSS batch of %d exceeds NumOfDisks %d", stats.MaxParallel, disks)
		}
	}
}

func TestFPSSVisitsAtLeastCRSS(t *testing.T) {
	// FPSS activates every sphere-intersecting candidate, CRSS a subset;
	// across a workload FPSS must fetch at least as many pages on
	// average.
	pts := dataset.CaliforniaLike(8000, 51)
	tree := buildTree(t, pts, 2, 10, 16)
	d := Driver{Tree: tree}
	var fpss, crss int
	for _, q := range dataset.SampleQueries(pts, 20, 52) {
		_, sf := d.Run(FPSS{}, q, 20, Options{})
		_, sc := d.Run(CRSS{}, q, 20, Options{})
		fpss += sf.NodesVisited
		crss += sc.NodesVisited
	}
	if fpss < crss {
		t.Errorf("FPSS total visits %d < CRSS %d", fpss, crss)
	}
}

func TestCachedLevelsReduceDiskAccesses(t *testing.T) {
	pts := dataset.Uniform(4000, 2, 61)
	tree := buildTree(t, pts, 2, 5, 16)
	d := Driver{Tree: tree}
	q := geom.Point{0.5, 0.5}
	res0, s0 := d.Run(CRSS{}, q, 10, Options{})
	res1, s1 := d.Run(CRSS{}, q, 10, Options{CachedLevels: 1})
	if s1.DiskAccesses >= s0.DiskAccesses {
		t.Errorf("caching root did not reduce disk accesses: %d vs %d", s1.DiskAccesses, s0.DiskAccesses)
	}
	if s1.NodesVisited != s0.NodesVisited {
		t.Errorf("caching changed visit count: %d vs %d", s1.NodesVisited, s0.NodesVisited)
	}
	for i := range res0 {
		if res0[i].DistSq != res1[i].DistSq {
			t.Fatal("caching changed results")
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	pts := dataset.Uniform(2000, 2, 71)
	tree := buildTree(t, pts, 2, 4, 16)
	d := Driver{Tree: tree}
	for _, alg := range allAlgorithms() {
		_, s := d.Run(alg, geom.Point{0.25, 0.75}, 10, Options{})
		if s.DiskAccesses != s.NodesVisited {
			t.Errorf("%s: disk accesses %d != visits %d with no caching", alg.Name(), s.DiskAccesses, s.NodesVisited)
		}
		perDisk := 0
		for _, c := range s.PerDisk {
			perDisk += c
		}
		if perDisk != s.DiskAccesses {
			t.Errorf("%s: per-disk sum %d != accesses %d", alg.Name(), perDisk, s.DiskAccesses)
		}
		if s.Instructions <= 0 || s.Scanned <= 0 {
			t.Errorf("%s: no CPU work recorded", alg.Name())
		}
		if s.Batches <= 0 || s.MaxParallel <= 0 {
			t.Errorf("%s: batch accounting missing", alg.Name())
		}
	}
}

// Property: on random data sets and queries, all four algorithms return
// the exact brute-force distance profile.
func TestAlgorithmsEquivalenceProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8, dimRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		dim := int(dimRaw)%4 + 2
		n := 200 + rnd.Intn(400)
		k := int(kRaw)%40 + 1
		pts := dataset.Clustered(n, dim, 1+rnd.Intn(8), seed)
		tree, err := parallel.New(parallel.Config{
			Dim: dim, NumDisks: 1 + rnd.Intn(8), Cylinders: 100,
			MaxEntries: 8 + rnd.Intn(20), Policy: decluster.ProximityIndex{}, Seed: seed,
		})
		if err != nil {
			return false
		}
		if err := tree.BuildPoints(pts); err != nil {
			return false
		}
		q := make(geom.Point, dim)
		for d := range q {
			q[d] = rnd.Float64()
		}
		want := bruteforce.KNN(pts, q, k)
		drv := Driver{Tree: tree}
		for _, alg := range allAlgorithms() {
			got, _ := drv.Run(alg, q, k, Options{})
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
