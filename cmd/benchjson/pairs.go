package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// Pairs mode reads the run files `make bench-pair` leaves, run-NN.json
// in a base and a change directory — pair NN is one run of each side —
// and judges every end-to-end metric that BENCHMARK.json, read from the
// working directory (the module root), declares the way a claimed gain
// and a regression are judged:
//
//	benchjson pairs BASE_DIR CHANGE_DIR
//
// Per workload and metric it prints the number of pairs N, both
// medians, the base's interquartile range and the pairs the change won
// (a tie counts for neither side), then the verdict:
//
//	won         at least 0.9·N pairs won, and the medians differ by more
//	            than the base's IQR, in the better direction
//	unresolved  the base's IQR is wider than the bound, and not every
//	            change run is better than every base run
//	worse       the change's median is worse than the base's by more
//	            than the bound
//	same        none of these
//
// and per workload each side's failed-operations share. It exits 1 when
// a metric is worse or the change failed a larger share of operations.

// pairRun is one run file's untraced run of one workload: its
// end-to-end metrics and its operation counts.
type pairRun struct {
	metrics           map[string]float64
	attempted, failed int
}

// pairSide is one directory: per pair name (run-NN.json), per workload,
// the run.
type pairSide map[string]map[string]pairRun

func loadPairSide(dir string) (pairSide, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run-NN.json files", dir)
	}
	side := pairSide{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf struct {
			Runs []struct {
				Workload  string `json:"workload"`
				Traced    bool   `json:"traced"`
				Attempted int    `json:"attempted"`
				Failed    int    `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(buf, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs := map[string]pairRun{}
		for _, r := range rf.Runs {
			if r.Traced {
				continue
			}
			pr := pairRun{metrics: map[string]float64{}, attempted: r.Attempted, failed: r.Failed}
			for name, m := range r.Metrics {
				pr.metrics[name] = m.Value
			}
			runs[r.Workload] = pr
		}
		side[filepath.Base(p)] = runs
	}
	return side, nil
}

// endToEnd is BENCHMARK.json's declaration of one end-to-end metric.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadEndToEnd(path string) ([]endToEnd, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// Verdicts of judgePairs.
const (
	verdictWon        = "won"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
)

// pairJudgement is what pairs mode prints for one workload and metric.
type pairJudgement struct {
	n, wins               int
	baseMedian, chgMedian float64
	baseIQR               float64
	verdict               string
}

// judgePairs judges the change's values against the base's, pair i
// being base[i] and change[i].
func judgePairs(base, change []float64, d endToEnd) pairJudgement {
	lower := d.Better == "lower"
	better := func(c, b float64) bool {
		if lower {
			return c < b
		}
		return c > b
	}
	j := pairJudgement{n: len(base)}
	for i := range base {
		if better(change[i], base[i]) {
			j.wins++
		}
	}
	q1, mb, q3 := pyQuartiles(base)
	_, mc, _ := pyQuartiles(change)
	j.baseMedian, j.chgMedian, j.baseIQR = mb, mc, q3-q1
	worse := (mc - mb) / mb
	if !lower {
		worse = -worse
	}
	allBetter := slices.Max(change) < slices.Min(base)
	if !lower {
		allBetter = slices.Min(change) > slices.Max(base)
	}
	switch {
	case float64(j.wins) >= 0.9*float64(j.n) && math.Abs(mc-mb) > j.baseIQR && better(mc, mb):
		j.verdict = verdictWon
	case mb != 0 && j.baseIQR/math.Abs(mb) > d.Bound && !allBetter:
		j.verdict = verdictUnresolved
	case mb != 0 && worse > d.Bound:
		j.verdict = verdictWorse
	default:
		j.verdict = verdictSame
	}
	return j
}

// pyQuartiles returns the first quartile, median and third quartile
// with the exclusive method of Python's statistics.quantiles(xs, n=4),
// the method the benchmark's acceptance check uses.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)
		return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
	}
	return at(1), at(2), at(3)
}

func runPairs(args []string) error {
	if len(args) != 2 {
		usage()
	}
	decl, err := loadEndToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := loadPairSide(args[0])
	if err != nil {
		return err
	}
	change, err := loadPairSide(args[1])
	if err != nil {
		return err
	}
	return comparePairs(os.Stdout, decl, base, change)
}

// comparePairs prints the judgement of every declared metric of every
// workload both sides ran in the same pairs, and each side's
// failed-operations share; it fails when some metric is worse or the
// change's share is larger.
func comparePairs(w io.Writer, decl []endToEnd, base, change pairSide) error {
	var pairs []string
	for name := range base {
		if change[name] != nil {
			pairs = append(pairs, name)
		}
	}
	sort.Strings(pairs)
	if len(pairs) == 0 {
		return errors.New("no run file is in both directories")
	}
	var workloads []string
	for wl := range base[pairs[0]] {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tN\tbase median\tchange median\tbase IQR\twins\tbound\tverdict")
	bad := 0
	for _, wl := range workloads {
		var failed, attempted [2]int
		for _, d := range decl {
			var b, c []float64
			for _, p := range pairs {
				rb, okb := base[p][wl]
				rc, okc := change[p][wl]
				vb, hasb := rb.metrics[d.Name]
				vc, hasc := rc.metrics[d.Name]
				if okb && okc && hasb && hasc {
					b, c = append(b, vb), append(c, vc)
				}
			}
			if len(b) == 0 {
				continue
			}
			j := judgePairs(b, c, d)
			if j.verdict == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%d/%d\t%.0f%% %s\t%s\n",
				wl, d.Name, d.Unit, j.n, j.baseMedian, j.chgMedian, j.baseIQR, j.wins, j.n, 100*d.Bound, d.Better, j.verdict)
		}
		for _, p := range pairs {
			for i, side := range []pairSide{base, change} {
				r := side[p][wl]
				failed[i] += r.failed
				attempted[i] += r.attempted
			}
		}
		share := func(i int) float64 { return 100 * float64(failed[i]) / float64(max(1, attempted[i])) }
		verdict := verdictSame
		if share(1) > share(0) {
			verdict = verdictWorse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed ops\t%%\t%d\t%.4g\t%.4g\t-\t-\tany rise\t%s\n", wl, len(pairs), share(0), share(1), verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse", bad)
	}
	return nil
}
