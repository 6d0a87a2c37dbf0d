// Command benchjson converts `go test -bench` output into a versioned
// JSON report and compares two reports benchstat-style.
//
// Parse mode reads benchmark output (files or stdin) and writes one JSON
// document per run:
//
//	go test -run xxx -bench BenchmarkKernels -benchmem . | benchjson parse -o BENCH_2026-08-08.json
//
// Repeated samples of the same benchmark (-count N) are folded to their
// median, and the sample count and the run-to-run spread of ns/op, B/op
// and allocs/op — (max − min) ÷ median — recorded. Benchmarks whose sub-name contains a `scalar`
// path segment are paired with their `batch` twin and the ns/op ratio is
// recorded in the `speedups` section — the kernel-vectorization
// trajectory this repo tracks across commits.
//
// Compare mode diffs a new report against a baseline:
//
//	benchjson compare -threshold 10 BENCH_baseline.json BENCH_new.json
//
// A benchmark whose median allocs/op rises by more than the threshold
// fails the comparison (exit status 1): allocation counts repeat run to
// run, so a rise is a code change — and for the same reason so does a
// benchmark of the new report whose allocs/op differ between its own
// runs by more than 2 % of their median: an allocation that depends on
// timing is a finding, not noise. An ns/op regression beyond the same
// threshold only warns — benchmark noise on shared CI runners must not
// block merges, it should only leave a visible trail. Under GitHub
// Actions (GITHUB_ACTIONS=true, or -github) both are emitted as
// workflow annotations (::error:: and ::warning::).
//
// Pairs mode judges the paired end-to-end runs of `make bench-pair`
// (see pairs.go):
//
//	benchjson pairs bin/bench-pair/base bin/bench-pair/change
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion identifies the report layout. Bump only with a
// compatibility note in DESIGN.md; compare mode refuses mismatches.
const SchemaVersion = 1

// Report is the top-level JSON document.
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	Date          string      `json:"date"`
	GoVersion     string      `json:"go_version,omitempty"`
	GOOS          string      `json:"goos,omitempty"`
	GOARCH        string      `json:"goarch,omitempty"`
	CPU           string      `json:"cpu,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
	Speedups      []Speedup   `json:"speedups,omitempty"`
}

// Benchmark is one benchmark's averaged result.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Samples     int                `json:"samples"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Spread is the run-to-run spread of the samples folded into this
	// row; absent for a single sample (and in reports older than it).
	Spread *Spread `json:"spread,omitempty"`
}

// Spread is (max − min) ÷ median over a benchmark's samples, per unit.
type Spread struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Speedup records one scalar/batch benchmark pair.
type Speedup struct {
	Name     string  `json:"name"` // pair name with the scalar|batch segment removed
	ScalarNs float64 `json:"scalar_ns_per_op"`
	BatchNs  float64 `json:"batch_ns_per_op"`
	Speedup  float64 `json:"speedup"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = runParse(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	case "pairs":
		err = runPairs(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown mode %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  benchjson parse   [-o FILE] [-date YYYY-MM-DD] [INPUT...]
  benchjson compare [-threshold PCT] [-github] BASELINE.json NEW.json
  benchjson pairs   BASE_DIR CHANGE_DIR   (reads ./BENCHMARK.json)
`)
	os.Exit(2)
}

// ---------------------------------------------------------------- parse

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	date := fs.String("date", "", "report date, YYYY-MM-DD (default today, UTC)")
	fs.Parse(args)

	var lines []string
	if fs.NArg() == 0 {
		var err error
		if lines, err = readLines(os.Stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		l, err := readLines(f)
		f.Close()
		if err != nil {
			return err
		}
		lines = append(lines, l...)
	}

	rep, err := parseBench(lines)
	if err != nil {
		return err
	}
	rep.Date = *date
	if rep.Date == "" {
		rep.Date = time.Now().UTC().Format("2006-01-02")
	}
	rep.GoVersion = runtime.Version()

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

func readLines(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// sample is one raw benchmark result line before averaging.
type sample struct {
	iterations int64
	nsPerOp    float64
	bytesPerOp *float64
	allocs     *float64
	metrics    map[string]float64
}

// parseBench parses `go test -bench` text output. Header lines (goos:,
// goarch:, pkg:, cpu:) set context for the benchmark lines that follow;
// everything else (PASS, ok, test logs) is ignored.
func parseBench(lines []string) (*Report, error) {
	rep := &Report{SchemaVersion: SchemaVersion}
	type key struct{ pkg, name string }
	samples := make(map[key][]sample)
	procs := make(map[key]int)
	var order []key
	pkg := ""
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			name, p, s, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			k := key{pkg, name}
			if _, seen := samples[k]; !seen {
				order = append(order, k)
			}
			samples[k] = append(samples[k], s)
			procs[k] = p
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	for _, k := range order {
		rep.Benchmarks = append(rep.Benchmarks, average(k.pkg, k.name, procs[k], samples[k]))
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	return rep, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkKernels/batch/dmin/d=2-8   3000   417.8 ns/op   0 B/op   0 allocs/op   92.00 entries/batch
//
// The trailing -N on the name is the GOMAXPROCS suffix, split off so
// reports from machines with different core counts still pair up.
func parseBenchLine(line string) (name string, procs int, s sample, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", 0, sample{}, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, sample{}, false
	}
	s.iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, sample{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.nsPerOp = v
		case "B/op":
			s.bytesPerOp = &v
		case "allocs/op":
			s.allocs = &v
		default:
			if s.metrics == nil {
				s.metrics = make(map[string]float64)
			}
			s.metrics[unit] = v
		}
	}
	return name, procs, s, true
}

// average folds repeated samples (-count N) into one Benchmark by
// median: on shared CI runners a single descheduled sample can be 2-3x
// slower than the mode, and the median discards exactly those spikes
// where a mean would smear them into every report.
func average(pkg, name string, procs int, ss []sample) Benchmark {
	b := Benchmark{Name: name, Package: pkg, Procs: procs, Samples: len(ss)}
	var ns, bytesV, allocV []float64
	metricV := make(map[string][]float64)
	for _, s := range ss {
		b.Iterations += s.iterations
		ns = append(ns, s.nsPerOp)
		if s.bytesPerOp != nil {
			bytesV = append(bytesV, *s.bytesPerOp)
		}
		if s.allocs != nil {
			allocV = append(allocV, *s.allocs)
		}
		for unit, v := range s.metrics {
			metricV[unit] = append(metricV[unit], v)
		}
	}
	b.NsPerOp = median(ns)
	if len(ss) > 1 {
		b.Spread = &Spread{NsPerOp: spread(ns)}
	}
	if len(bytesV) > 0 {
		v := median(bytesV)
		b.BytesPerOp = &v
		if b.Spread != nil {
			sp := spread(bytesV)
			b.Spread.BytesPerOp = &sp
		}
	}
	if len(allocV) > 0 {
		v := median(allocV)
		b.AllocsPerOp = &v
		if b.Spread != nil {
			sp := spread(allocV)
			b.Spread.AllocsPerOp = &sp
		}
	}
	if len(metricV) > 0 {
		b.Metrics = make(map[string]float64, len(metricV))
		for unit, vs := range metricV {
			b.Metrics[unit] = median(vs)
		}
	}
	return b
}

// median returns the middle value (mean of the middle two for even
// counts) of a non-empty sample set.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// spread returns (max − min) ÷ median of a non-empty sample set: 0 when
// every run read the same, and relative to the maximum when the median
// itself is 0.
func spread(vs []float64) float64 {
	sort.Float64s(vs)
	lo, hi := vs[0], vs[len(vs)-1]
	if hi == lo {
		return 0
	}
	if m := median(vs); m != 0 {
		return (hi - lo) / m
	}
	return (hi - lo) / hi
}

// deriveSpeedups pairs every benchmark that has a path segment equal to
// "scalar" with its "batch" twin in the same package and records the
// ns/op ratio. Names are segment-wise so "scalar" inside a longer word
// never matches.
func deriveSpeedups(benches []Benchmark) []Speedup {
	type key struct{ pkg, name string }
	byName := make(map[key]*Benchmark, len(benches))
	for i := range benches {
		byName[key{benches[i].Package, benches[i].Name}] = &benches[i]
	}
	var out []Speedup
	for i := range benches {
		scalar := &benches[i]
		segs := strings.Split(scalar.Name, "/")
		si := -1
		for j, s := range segs {
			if s == "scalar" {
				si = j
				break
			}
		}
		if si < 0 {
			continue
		}
		segs[si] = "batch"
		batch, ok := byName[key{scalar.Package, strings.Join(segs, "/")}]
		if !ok || batch.NsPerOp <= 0 {
			continue
		}
		pair := append(append([]string{}, segs[:si]...), segs[si+1:]...)
		out = append(out, Speedup{
			Name:     strings.Join(pair, "/"),
			ScalarNs: scalar.NsPerOp,
			BatchNs:  batch.NsPerOp,
			Speedup:  scalar.NsPerOp / batch.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// -------------------------------------------------------------- compare

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 10, "regression threshold, percent increase: ns/op warns, allocs/op fails")
	github := fs.Bool("github", false, "emit ::warning::/::error:: annotations (auto-on under GITHUB_ACTIONS)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	annotate := *github || os.Getenv("GITHUB_ACTIONS") == "true"

	base, err := loadReport(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := loadReport(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("new report: %w", err)
	}
	fmt.Printf("comparing %s (%s) -> %s (%s), threshold +%.0f%%: ns/op warns, allocs/op fails\n",
		fs.Arg(0), base.Date, fs.Arg(1), cur.Date, *threshold)
	if n := compareReports(os.Stdout, base, cur, *threshold, annotate); n > 0 {
		return fmt.Errorf("%d benchmark(s) allocate more than %.0f%% above the baseline, or differently from run to run", n, *threshold)
	}
	return nil
}

// maxAllocSpread is how far a benchmark's allocs/op may differ between
// the runs of one report, as a fraction of their median.
const maxAllocSpread = 0.02

// compareReports prints the benchmark-by-benchmark comparison and
// returns the number of allocation regressions — the gating half. A
// benchmark's allocs/op is a count the program makes of itself and
// repeats from run to run, so a rise beyond the
// threshold is a change in the code, never runner noise — and a count
// that does not repeat between the new report's own runs (maxAllocSpread)
// is one too, whatever the baseline says; ns/op on a
// shared runner is noise-prone and only ever warns.
func compareReports(w io.Writer, base, cur *Report, threshold float64, annotate bool) (allocRegressions int) {
	type key struct{ pkg, name string }
	baseBy := make(map[key]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[key{b.Package, b.Name}] = b
	}

	regressions, improvements, missing := 0, 0, 0
	for _, b := range cur.Benchmarks {
		if sp := b.Spread; sp != nil && sp.AllocsPerOp != nil && *sp.AllocsPerOp > maxAllocSpread {
			allocRegressions++
			msg := fmt.Sprintf("%s allocates differently from run to run: allocs/op spread %.1f%% of the median %g over %d runs",
				b.Name, 100**sp.AllocsPerOp, *b.AllocsPerOp, b.Samples)
			fmt.Fprintf(w, "  ALLOCS %s\n", msg)
			if annotate {
				fmt.Fprintf(w, "::error title=timing-dependent allocation::%s\n", msg)
			}
		}
		old, ok := baseBy[key{b.Package, b.Name}]
		if !ok {
			fmt.Fprintf(w, "  new   %-60s %12.1f ns/op\n", b.Name, b.NsPerOp)
			continue
		}
		delete(baseBy, key{b.Package, b.Name})
		if old.AllocsPerOp != nil && b.AllocsPerOp != nil && *b.AllocsPerOp > *old.AllocsPerOp*(1+threshold/100) {
			allocRegressions++
			msg := fmt.Sprintf("%s allocates more: %g -> %g allocs/op", b.Name, *old.AllocsPerOp, *b.AllocsPerOp)
			fmt.Fprintf(w, "  ALLOCS %s\n", msg)
			if annotate {
				fmt.Fprintf(w, "::error title=allocation regression::%s\n", msg)
			}
		}
		if old.NsPerOp <= 0 {
			continue
		}
		pct := (b.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		switch {
		case pct > threshold:
			regressions++
			msg := fmt.Sprintf("%s regressed: %.1f -> %.1f ns/op (%+.1f%%)",
				b.Name, old.NsPerOp, b.NsPerOp, pct)
			fmt.Fprintf(w, "  SLOWER %s\n", msg)
			if annotate {
				fmt.Fprintf(w, "::warning title=benchmark regression::%s\n", msg)
			}
		case pct < -threshold:
			improvements++
			fmt.Fprintf(w, "  faster %s: %.1f -> %.1f ns/op (%+.1f%%)\n",
				b.Name, old.NsPerOp, b.NsPerOp, pct)
		}
	}
	for k := range baseBy {
		missing++
		msg := fmt.Sprintf("benchmark %s present in baseline but missing from new report", k.name)
		fmt.Fprintf(w, "  gone   %s\n", msg)
		if annotate {
			fmt.Fprintf(w, "::warning title=benchmark removed::%s\n", msg)
		}
	}
	compareSpeedups(w, base, cur, annotate)
	fmt.Fprintf(w, "summary: %d allocation regression(s) — gating; %d ns/op regression(s), %d improvement(s), %d missing — informational\n",
		allocRegressions, regressions, improvements, missing)
	return allocRegressions
}

// compareSpeedups reports movement in the scalar/batch speedup pairs —
// the headline series of this repo's benchmark trajectory.
func compareSpeedups(w io.Writer, base, cur *Report, annotate bool) {
	baseBy := make(map[string]Speedup, len(base.Speedups))
	for _, s := range base.Speedups {
		baseBy[s.Name] = s
	}
	for _, s := range cur.Speedups {
		old, ok := baseBy[s.Name]
		if !ok {
			fmt.Fprintf(w, "  speedup %-50s %6.2fx (new)\n", s.Name, s.Speedup)
			continue
		}
		fmt.Fprintf(w, "  speedup %-50s %6.2fx (was %.2fx)\n", s.Name, s.Speedup, old.Speedup)
		if old.Speedup > 0 && s.Speedup < old.Speedup*0.9 && annotate {
			fmt.Fprintf(w, "::warning title=speedup regression::%s batch speedup fell %.2fx -> %.2fx\n",
				s.Name, old.Speedup, s.Speedup)
		}
	}
}

func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this tool speaks %d",
			path, rep.SchemaVersion, SchemaVersion)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: report has no benchmarks", path)
	}
	for _, b := range rep.Benchmarks {
		if math.IsNaN(b.NsPerOp) {
			return nil, fmt.Errorf("%s: NaN ns/op for %s", path, b.Name)
		}
	}
	return &rep, nil
}
