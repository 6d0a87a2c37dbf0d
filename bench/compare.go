package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// seriesKey names one series of a run set.
type seriesKey struct {
	workload string
	traced   bool
	metric   string
}

type series struct {
	unit   string
	values []float64
}

// failedOpsPct is a run's (errors + non-200 + wrong answers) ÷ attempted,
// which the result files carry as counts; a run set has it as a series
// like any metric.
const failedOpsPct = "failed_ops_pct"

// runSet is the result files of one directory: one series per workload
// × run kind × metric, and the window all of them were measured with.
type runSet struct {
	series map[seriesKey]*series
	window float64
}

func loadRunSet(dir string) (*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	sort.Strings(paths)
	set := &runSet{series: map[seriesKey]*series{}}
	add := func(k seriesKey, unit string, v float64) {
		if set.series[k] == nil {
			set.series[k] = &series{unit: unit}
		}
		set.series[k].values = append(set.series[k].values, v)
	}
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(buf, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if i == 0 {
			set.window = rf.Env.WindowSeconds
		} else if rf.Env.WindowSeconds != set.window {
			return nil, fmt.Errorf("%s: measured with another window than %s", p, paths[0])
		}
		for _, r := range rf.Runs {
			for name, m := range r.Metrics {
				add(seriesKey{r.Workload, r.Traced, name}, m.Unit, m.Value)
			}
			add(seriesKey{r.Workload, r.Traced, failedOpsPct}, "%", r.failedOpsPct())
		}
	}
	return set, nil
}

// Verdicts of compareSeries.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // the metric has no bound
)

// compareSeries judges run set b against a for one bounded metric: b
// regressed when its median is worse than a's by more than the bound;
// when a's own interquartile spread exceeds the bound the comparison
// cannot resolve that, unless every run of b beats every run of a.
// failed_ops_pct has no tolerance and no median: b regressed when any of
// its runs failed more than a's worst.
func compareSeries(a, b []float64, d declaredMetric) string {
	if d.Name == failedOpsPct {
		if slices.Max(b) > slices.Max(a) {
			return verdictRegressed
		}
		return verdictOK
	}
	if d.Bound <= 0 {
		return verdictNone
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if medA == 0 {
		return verdictUnresolved
	}
	lower := d.Better == "lower"
	worse := (medB - medA) / medA
	if !lower {
		worse = -worse
	}
	if (q3-q1)/medA > d.Bound {
		if allBetter(a, b, lower) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, lower bool) bool {
	if lower {
		return slices.Max(b) < slices.Min(a)
	}
	return slices.Min(b) > slices.Max(a)
}

// endToEndBounds are the declaration's bounds plus those of the
// end-to-end metrics BENCHMARK.json cannot list, because the driver wants
// every listed metric from every workload: ingest-mixed's own two and
// failed_ops_pct. mutations_per_s is queries_per_s times five there, so
// it shares that bound; write_amp is a ratio of exact counts.
func endToEndBounds(decl *declaration) map[string]declaredMetric {
	bounds := map[string]declaredMetric{}
	for _, d := range decl.EndToEnd {
		bounds[d.Name] = d
	}
	bounds["mutations_per_s"] = declaredMetric{Name: "mutations_per_s", Unit: "1/s", Better: "higher", Bound: bounds["queries_per_s"].Bound}
	bounds["write_amp"] = declaredMetric{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.01}
	bounds[failedOpsPct] = declaredMetric{Name: failedOpsPct, Unit: "%", Better: "lower"}
	return bounds
}

// compareRunSets prints, per workload × metric, both sets' medians and
// quartiles and the verdict under the benchmark's bounds.
func compareRunSets(w io.Writer, decl *declaration, dirA, dirB string) error {
	setA, err := loadRunSet(dirA)
	if err != nil {
		return err
	}
	setB, err := loadRunSet(dirB)
	if err != nil {
		return err
	}
	if setA.window != setB.window {
		// The window sets the length of ingest-mixed's script and the
		// sample behind every percentile.
		return fmt.Errorf("%s was measured with a %gs window, %s with %gs: not comparable", dirA, setA.window, dirB, setB.window)
	}
	a, b := setA.series, setB.series
	bounds := endToEndBounds(decl)
	keys := make([]seriesKey, 0, len(a))
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.workload != kj.workload {
			return ki.workload < kj.workload
		}
		if ki.traced != kj.traced {
			return !ki.traced
		}
		return ki.metric < kj.metric
	})
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	regressed := 0
	for _, k := range keys {
		sa, sb := a[k], b[k]
		q1a, ma, q3a := quartiles(sa.values)
		q1b, mb, q3b := quartiles(sb.values)
		d := bounds[k.metric]
		if k.traced && k.metric != failedOpsPct {
			d = declaredMetric{} // per-layer metrics carry no bound
		}
		verdict := compareSeries(sa.values, sb.values, d)
		if verdict == verdictRegressed {
			regressed++
		}
		change, bound := "-", "-"
		if ma != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/ma)
		}
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%% %s", 100*d.Bound, d.Better)
		} else if d.Name == failedOpsPct {
			bound = "any rise"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\n",
			k.workload, k.metric, sa.unit, ma, q1a, q3a, len(sa.values), mb, q1b, q3b, len(sb.values),
			change, bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
