// Package harness defines and runs every experiment of the paper's
// evaluation (Section 4): Figures 8–12, Tables 3–5, plus the ablations
// called out in DESIGN.md. Each experiment produces a Table whose series
// mirror the rows/curves the paper reports; the cmd/experiments binary
// and the repository-level benchmarks are thin wrappers over this
// package.
package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/simarray"
)

// Options scales experiments. The zero value (after fill) reproduces the
// paper's populations and 100-query workloads; benchmarks run reduced
// scales to keep wall-clock time sane and say so in their notes.
type Options struct {
	// Scale multiplies data-set populations (and, unless Queries is
	// set, the per-point query count). 0 means 1.0: full paper scale.
	Scale float64
	// Queries per measured point; 0 derives 100*Scale (minimum 10).
	Queries int
	// Seed drives every random choice (data, queries, placement,
	// rotational latencies, arrivals).
	Seed int64
}

func (o Options) fill() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Queries == 0 {
		o.Queries = int(100 * o.Scale)
		if o.Queries < 10 {
			o.Queries = 10
		}
	}
	if o.Seed == 0 {
		o.Seed = 1998
	}
	return o
}

// scaleN applies the population scale with a floor that keeps trees at
// least three levels deep.
func (o Options) scaleN(n int) int {
	s := int(float64(n) * o.Scale)
	if s < 2000 {
		s = 2000
	}
	if s > n {
		s = n
	}
	return s
}

// scaleKs drops sweep points exceeding the (scaled) population.
func scaleKs(ks []int, n int) []int {
	out := ks[:0:0]
	for _, k := range ks {
		if k <= n {
			out = append(out, k)
		}
	}
	return out
}

// paperEntries is the paper's node capacity at dim: what one 4 KiB
// page holds of rectangle entries (sphere entries in an SR tree), for
// leaves and directory nodes alike. The experiments set it, and so keep
// the paper's page counts, where the default layout would fit more
// points to a leaf.
func paperEntries(dim int, spheres bool) int {
	return max(4, pagestore.Codec{Dim: dim, PageSize: 4096, Spheres: spheres}.Capacity(1))
}

// buildTree constructs the parallel R*-tree for an experiment. The
// paper's trees use PI declustering and one block per node.
func buildTree(dsName string, n, dim, disks int, seed int64) (*parallel.Tree, []geom.Point, error) {
	pts, err := dataset.ByName(dsName, n, dim, seed)
	if err != nil {
		return nil, nil, err
	}
	t, err := parallel.New(parallel.Config{
		Dim:        dim,
		NumDisks:   disks,
		Cylinders:  disk.HPC2200A().Cylinders,
		MaxEntries: paperEntries(dim, false),
		Policy:     decluster.ProximityIndex{},
		Seed:       seed + 17,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := t.BuildPoints(pts); err != nil {
		return nil, nil, err
	}
	return t, pts, nil
}

// meanVisits runs the immediate driver over the query set and returns
// the mean visited-node count for one algorithm.
func meanVisits(t *parallel.Tree, alg query.Algorithm, queries []geom.Point, k int) float64 {
	d := query.Driver{Tree: t}
	xs := make([]float64, len(queries))
	for i, q := range queries {
		_, stats := d.Run(alg, q, k, query.Options{})
		xs[i] = float64(stats.NodesVisited)
	}
	return metrics.Mean(xs)
}

// meanResponse runs the system simulator and returns the mean query
// response time in seconds.
func meanResponse(t *parallel.Tree, alg query.Algorithm, queries []geom.Point, k int, lambda float64, seed int64) (float64, error) {
	return simarray.MeanResponseOf(t, simarray.Config{Seed: seed}, simarray.Workload{
		Algorithm:   alg,
		K:           k,
		Queries:     queries,
		ArrivalRate: lambda,
	})
}

// Runner is a registered experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Options) (*Table, error)
}

// Experiments returns the registry of every reproducible figure, table
// and ablation, in presentation order.
func Experiments() []Runner {
	return []Runner{
		{"fig8-cp", "Visited nodes vs k, California places, 10 disks, 2-d (Fig 8 left)", Fig8CP},
		{"fig8-lb", "Visited nodes vs k, Long Beach, 10 disks, 2-d (Fig 8 right)", Fig8LB},
		{"fig9-sg", "Visited nodes normalized to WOPTSS vs k, Gaussian 10-d (Fig 9 left)", Fig9SG},
		{"fig9-su", "Visited nodes normalized to WOPTSS vs k, Uniform 10-d (Fig 9 right)", Fig9SU},
		{"fig10-lb", "Response time vs arrival rate, Long Beach, 5 disks, k=10 (Fig 10 left)", Fig10LB},
		{"fig10-cp", "Response time vs arrival rate, California, 10 disks, k=100 (Fig 10 right)", Fig10CP},
		{"fig11-k10", "Response time normalized to WOPTSS vs #disks, k=10 (Fig 11 left)", Fig11K10},
		{"fig11-k100", "Response time normalized to WOPTSS vs #disks, k=100 (Fig 11 right)", Fig11K100},
		{"fig12-l1", "Response time normalized to WOPTSS vs k, λ=1 (Fig 12 left)", Fig12L1},
		{"fig12-l20", "Response time normalized to WOPTSS vs k, λ=20 (Fig 12 right)", Fig12L20},
		{"table3", "Scale-up with population growth (Table 3)", Table3},
		{"table4", "Scale-up with query size growth (Table 4)", Table4},
		{"table5", "Qualitative comparison (Table 5)", Table5},
		{"abl-decl", "Ablation: declustering heuristics (paper §2.2 claim)", AblationDecluster},
		{"abl-eps", "Ablation: k-NN as a series of growing range queries (paper §2.3)", AblationEpsilon},
		{"abl-act", "Ablation: CRSS activation upper bound sweep", AblationActivationBound},
		{"abl-cache", "Ablation: directory-level caching", AblationCache},
		{"abl-sr", "Ablation: R*-tree vs SR-tree access method (paper future work)", AblationSRTree},
		{"abl-raid1", "Ablation: shadowed disks / RAID-1 (paper future work)", AblationRAID1},
		{"abl-model", "Ablation: analytic cost model vs simulation (paper future work)", AblationModel},
		{"abl-bf", "Ablation: best-first search (access-optimal sequential) vs CRSS", AblationBestFirst},
		{"abl-pack", "Ablation: incremental build vs STR packing (reorganization value)", AblationPacking},
		{"abl-cpu", "Ablation: shared-memory multiprocessor (paper future work)", AblationCPUs},
		{"abl-xtree", "Ablation: R*-tree vs X-tree supernodes (paper future work)", AblationXTree},
		{"abl-range", "Ablation: parallel range queries (multiplexed R-tree workload)", AblationRange},
	}
}

// Run dispatches an experiment by ID.
func Run(id string, opt Options) (*Table, error) {
	for _, r := range Experiments() {
		if r.ID == id {
			return r.Run(opt)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (use one of %v)", id, IDs())
}

// IDs lists the registered experiment identifiers.
func IDs() []string {
	rs := Experiments()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// intsToFloats converts a sweep axis.
func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// normalizeTo divides each series by the reference series element-wise
// (the paper's "normalized to WOPTSS" presentation).
func normalizeTo(t *Table, refLabel string) {
	ref := t.Get(refLabel)
	if ref == nil {
		return
	}
	base := append([]float64(nil), ref.Y...)
	for i := range t.Series {
		for j := range t.Series[i].Y {
			t.Series[i].Y[j] = metrics.Ratio(t.Series[i].Y[j], base[j])
		}
	}
}

// checkShape validates a monotone ordering expectation between two
// series on average and records the finding in the table notes — the
// reproduction verifies the paper's qualitative claims automatically.
func checkShape(t *Table, betterLabel, worseLabel string) {
	b, w := t.Get(betterLabel), t.Get(worseLabel)
	if b == nil || w == nil {
		return
	}
	var bm, wm float64
	for i := range b.Y {
		if !math.IsNaN(b.Y[i]) {
			bm += b.Y[i]
		}
		if !math.IsNaN(w.Y[i]) {
			wm += w.Y[i]
		}
	}
	verdict := "HOLDS"
	if bm >= wm {
		verdict = "VIOLATED"
	}
	t.Notes = append(t.Notes, fmt.Sprintf("shape %s < %s (mean): %s (%.4g vs %.4g)",
		betterLabel, worseLabel, verdict, bm/float64(len(b.Y)), wm/float64(len(w.Y))))
}
