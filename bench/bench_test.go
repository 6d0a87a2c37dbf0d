package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	s := summarizeLatency(xs)
	if s.N != 1000 || s.TailP != 99 || s.P50 != 500.5 || s.Tail < 990 || s.Tail > 991 {
		t.Errorf("summarizeLatency(1..1000) = %+v", s)
	}
	if s := summarizeLatency(xs[:150]); s.TailP != 90 {
		t.Errorf("150 samples: tail percentile %v, want 90", s.TailP)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

func TestInputsSeeded(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(true)
		a, err := newInputs(w, 7, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(w, 7, 6)
		c, _ := newInputs(w, 8, 6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a.queries, c.queries) {
			t.Errorf("%s: different seeds gave the same queries", w.name)
		}
		if !reflect.DeepEqual(a.points, c.points) {
			t.Errorf("%s: the data set must not depend on the run's seed (see dataSeed)", w.name)
		}
		if d, _ := newInputs(w, 7, 3); w.ingest && !(reflect.DeepEqual(d.script, a.script[:3]) && reflect.DeepEqual(d.points, a.points[:len(d.points)])) {
			t.Errorf("%s: a shorter script must be a prefix of a longer one", w.name)
		}
		if w.ingest {
			if len(a.script) != 6 || len(a.script[0]) != batchInserts+batchDeletes {
				t.Errorf("%s: script shape %d x %d", w.name, len(a.script), len(a.script[0]))
			}
			if !reflect.DeepEqual(a.script, c.script) {
				t.Errorf("%s: the mutation script must not depend on the run's seed (see dataSeed)", w.name)
			}
			ids, pts := survivors(w, a, len(a.script))
			if want := w.points + 6*(batchInserts-batchDeletes); len(ids) != want || len(pts) != want {
				t.Errorf("%s: %d survivors, want %d", w.name, len(ids), want)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Start: 25, End: 35},  // a grandchild leaves span 0 alone
	}
	want := []time.Duration{50, 20, 20, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCompareSeries(t *testing.T) {
	lower := declaredMetric{Name: "query_p50_us", Better: "lower", Bound: 0.05}
	higher := declaredMetric{Name: "queries_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 100, 120, 90, 110}
	for _, c := range []struct {
		name string
		a, b []float64
		d    declaredMetric
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower within bound", steady, []float64{103, 104, 103, 104, 103}, lower, verdictOK},
		{"slower beyond bound", steady, []float64{110, 111, 109, 110, 112}, lower, verdictRegressed},
		{"faster", steady, []float64{50, 51, 49, 50, 52}, lower, verdictOK},
		{"throughput fell", steady, []float64{90, 91, 89, 90, 92}, higher, verdictRegressed},
		{"throughput rose", steady, []float64{110, 111, 109, 110, 112}, higher, verdictOK},
		{"A too noisy", noisy, []float64{100, 100, 100, 100, 100}, lower, verdictUnresolved},
		{"A noisy but B wins every pair", noisy, []float64{50, 60, 55, 52, 58}, lower, verdictOK},
		{"no bound", steady, noisy, declaredMetric{Name: "rtree.pages"}, verdictNone},
		{"nothing failed", []float64{0, 0, 0}, []float64{0, 0, 0}, declaredMetric{Name: failedOpsPct}, verdictOK},
		{"one run of B failed", []float64{0, 0, 0}, []float64{0, 0.01, 0}, declaredMetric{Name: failedOpsPct}, verdictRegressed},
	} {
		if got := compareSeries(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// writeRunSet stores one result file holding one end-to-end run of
// ingest-mixed.
func writeRunSet(t *testing.T, window float64, failed int, metrics map[string]metric) string {
	t.Helper()
	dir := t.TempDir()
	rf := resultFile{
		Env:  environment{WindowSeconds: window},
		Runs: []*runResult{{Workload: "ingest-mixed", Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: metrics}},
	}
	if err := writeResultFile(filepath.Join(dir, "result.json"), rf); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCompareRunSets checks what -compare judges beyond the declared
// bounds: ingest-mixed's own metrics, failed operations, and that run
// sets of different windows are refused.
func TestCompareRunSets(t *testing.T) {
	decl := &declaration{EndToEnd: []declaredMetric{{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}}}
	base := map[string]metric{"queries_per_s": {500, "1/s"}, "mutations_per_s": {2500, "1/s"}, "write_amp": {180, "ratio"}}
	a := writeRunSet(t, 15, 0, base)
	for _, c := range []struct {
		name    string
		b       string
		wantErr bool
	}{
		{"same", writeRunSet(t, 15, 0, base), false},
		{"WAL bytes doubled", writeRunSet(t, 15, 0, map[string]metric{"queries_per_s": {500, "1/s"}, "mutations_per_s": {2500, "1/s"}, "write_amp": {360, "ratio"}}), true},
		{"mutations fell", writeRunSet(t, 15, 0, map[string]metric{"queries_per_s": {500, "1/s"}, "mutations_per_s": {1500, "1/s"}, "write_amp": {180, "ratio"}}), true},
		{"operations failed", writeRunSet(t, 15, 3, base), true},
		{"another window", writeRunSet(t, 10, 0, base), true},
	} {
		var out bytes.Buffer
		if err := compareRunSets(&out, decl, a, c.b); (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error: %v\n%s", c.name, err, c.wantErr, out.String())
		}
	}
}

// TestSmoke runs all four workloads, both kinds of run, at smoke size
// and checks the harness end to end: every answer correct, every metric
// BENCHMARK.json declares present and non-zero where the driver needs
// it, result file and traces written, and -compare reading them back.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four trees")
	}
	// The program reads BENCHMARK.json from the module root, as the
	// driver runs it.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	decl, err := readDeclaration(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%s declares %d workloads, the program has %d", benchmarkFile, len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program %q", i, decl.Workloads[i].Name, w.name)
		}
	}

	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-smoke", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	buf, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs in the result file, want %d", len(rf.Runs), 2*len(workloads))
	}
	if rf.Env.GoVersion == "" || rf.Env.NumCPU == 0 || rf.Env.Clients != clients || rf.Env.Seed != 1998 {
		t.Errorf("environment not recorded: %+v", rf.Env)
	}
	for _, r := range rf.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted)
		}
		line, err := driverLine(r, decl)
		if err != nil {
			t.Error(err)
			continue
		}
		var parsed struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatal(err)
		}
		declared := decl.EndToEnd
		if r.Traced {
			declared = decl.PerLayer
		}
		if len(parsed.Metrics) != len(declared) {
			t.Errorf("%s traced=%v: %d metrics on the driver's line, %d declared", r.Workload, r.Traced, len(parsed.Metrics), len(declared))
		}
		for _, d := range declared {
			if m := parsed.Metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s traced=%v: %s = %v %q, want a positive value in %q", r.Workload, r.Traced, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(out, "trace-"+r.Workload+".jsonl")); err != nil {
				t.Error(err)
			}
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(workloads); len(entries) != want {
		t.Errorf("%d entries left in the output directory, want %d (scratch data must be removed)", len(entries), want)
	}

	stdout.Reset()
	if err := compareRunSets(&stdout, decl, out, out); err != nil {
		t.Errorf("comparing a run set with itself: %v\n%s", err, stdout.String())
	}
}
