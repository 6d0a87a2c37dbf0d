// Command bench is the repository's layered end-to-end benchmark: four
// workloads driven through the public functions of core, exec, server
// and pagestore, every sampled answer checked against brute force, the
// end-to-end metrics measured with tracing off and the per-layer
// metrics from a separate traced run. See README.md in this directory
// and BENCHMARK.json at the module root.
//
//	go run ./bench                               all workloads, both runs, full report
//	go run ./bench -workload knn-mem -trace 0    one run; last line is the driver's JSON
//	go run ./bench -repeat 5 -out a/             a run set for -compare
//	go run ./bench -compare a/ b/                medians, quartiles and verdicts
//
// run.sh is the same program as BENCHMARK.json's command: built with the
// go command's cache inside the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchmarkFile is the benchmark's contract with the driver: workload
// and metric names, bounds, run length. It is read from the working
// directory, the module root.
const benchmarkFile = "BENCHMARK.json"

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// environment is recorded in every result file.
type environment struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          int64   `json:"seed"`
	Clients       int     `json:"clients"`
	WindowSeconds float64 `json:"window_seconds"`
	Smoke         bool    `json:"smoke,omitempty"`
}

// resultFile is one invocation's output: per-metric sample counts are
// inside each run.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func commit(ctx context.Context) string {
	out, err := osexec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func writeResultFile(path string, rf resultFile) error {
	buf, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// layerRank orders the report the way a query travels.
var layerRank = map[string]int{
	"server": 1, "exec": 2, "bufferpool": 3, "pagestore": 4, "rtree": 5,
	"query": 6, "geom": 7, "obs": 8, "ledger": 9,
}

var endToEndOrder = []string{
	"setup_s", "queries_per_s", "query_p50_us", "query_p99_us", "mutations_per_s",
	"write_amp", "allocs_per_op", "bytes_per_op", "heap_mb",
}

func sortedMetricNames(r *runResult) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	rank := func(name string) int {
		if layer, _, ok := strings.Cut(name, "."); ok {
			return 100 * layerRank[layer]
		}
		for i, n := range endToEndOrder {
			if n == name {
				return i
			}
		}
		return len(endToEndOrder)
	}
	sort.Slice(names, func(i, j int) bool {
		if ri, rj := rank(names[i]), rank(names[j]); ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, r *runResult, seed int64) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d) ==\n", r.Workload, kind, seed)
	for _, name := range sortedMetricNames(r) {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-36s %14.4f %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("   (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-36s %14.4f %%   (%d failed of %d attempted)\n", failedOpsPct,
		r.failedOpsPct(), r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// driverLine is the last line of a single run: exactly the metrics the
// declaration lists for that kind of run.
func driverLine(r *runResult, decl *declaration) (string, error) {
	declared := decl.EndToEnd
	if r.Traced {
		declared = decl.PerLayer
	}
	metrics := map[string]metric{}
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: declared metric %s was not measured", r.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	buf, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(buf), err
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all four)")
		seed         = fs.Int64("seed", 1998, "seed of the generated inputs")
		seconds      = fs.Float64("seconds", 0, "measured window in seconds; the driver passes run_seconds of BENCHMARK.json, which is also the default")
		trace        = fs.Int("trace", -1, "0: end-to-end run only, 1: traced run only, -1: both")
		repeat       = fs.Int("repeat", 1, "repeat the selected runs N times, one result file each")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for result files, traces and scratch data")
		compare      = fs.Bool("compare", false, "compare two run-set directories given as arguments")
		smoke        = fs.Bool("smoke", false, "tiny sizes: exercise the harness in about a second per workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	decl, err := readDeclaration(benchmarkFile)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two directories"))
		}
		if err := compareRunSets(stdout, decl, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}
	opt := options{seed: *seed, seconds: *seconds, outDir: *outDir, smoke: *smoke}
	if opt.seconds <= 0 {
		opt.seconds = float64(decl.RunSeconds)
		if opt.smoke {
			opt.seconds = 0.3
		}
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return fail(err)
	}
	env := environment{
		Commit: commit(ctx), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opt.seed, Clients: clients,
		WindowSeconds: opt.seconds, Smoke: opt.smoke,
	}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d clients, window %gs\n",
		env.Commit, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Seed, env.Clients, env.WindowSeconds)

	ok := true
	var last *runResult
	for rep := 0; rep < *repeat; rep++ {
		rf := resultFile{Env: env}
		for _, w := range selected {
			w = w.scaled(opt.smoke)
			for _, traced := range []bool{false, true} {
				if (*trace == 0 && traced) || (*trace == 1 && !traced) {
					continue
				}
				runOne := runUntraced
				if traced {
					runOne = runTraced
				}
				res, err := runOne(ctx, w, opt)
				if err != nil {
					return fail(err)
				}
				printRun(stdout, res, opt.seed)
				rf.Runs = append(rf.Runs, res)
				ok = ok && res.Correct
				last = res
			}
		}
		name := "result.json"
		if *repeat > 1 {
			name = fmt.Sprintf("run-%02d.json", rep)
		}
		if err := writeResultFile(filepath.Join(opt.outDir, name), rf); err != nil {
			return fail(err)
		}
	}
	if len(selected) == 1 && *trace >= 0 && *repeat == 1 {
		line, err := driverLine(last, decl)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: wrong answers or failed operations, see failed_ops_pct above")
		return 1
	}
	return 0
}
