package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeRuns writes one run file per element of values — run-01.json on
// — into a new directory: a knn-mem run whose metric m reads
// values[i][m], failed of its 1 000 operations failed.
func writeRuns(t *testing.T, values []map[string]float64, failed int) string {
	t.Helper()
	dir := t.TempDir()
	for i, vs := range values {
		metrics := map[string]any{}
		for name, v := range vs {
			metrics[name] = map[string]any{"value": v, "unit": "x"}
		}
		rf := map[string]any{"runs": []any{
			map[string]any{"workload": "knn-mem", "traced": false, "attempted": 1000, "failed": failed, "metrics": metrics},
			// A traced run of the same workload is no pair's.
			map[string]any{"workload": "knn-mem", "traced": true, "attempted": 1000, "failed": 0,
				"metrics": map[string]any{"queries_per_s": map[string]any{"value": 1.0}}},
		}}
		buf, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%02d.json", i+1)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

var pairsDecl = []endToEnd{
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.02},
}

// verdicts runs pairs mode over the two directories and returns each
// metric's verdict and the error.
func verdicts(t *testing.T, baseDir, changeDir string) (map[string]string, string, error) {
	t.Helper()
	base, err := loadPairSide(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadPairSide(changeDir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = comparePairs(&out, pairsDecl, base, change)
	got := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1); len(f) == 10 && f[0] == "knn-mem" {
			got[f[1]] = f[9]
		}
	}
	return got, out.String(), err
}

// A fixture of ten pairs with one metric won, one worse and one
// unresolved: the verdicts, the wins counted, and the failed
// operations share that grew.
func TestPairsVerdicts(t *testing.T) {
	var base, change []map[string]float64
	for i := 0; i < 10; i++ {
		x := float64(i%3) - 1 // a little noise: -1, 0, 1
		base = append(base, map[string]float64{
			"queries_per_s": 100 + x, "query_p50_us": 100 + x,
			"query_p99_us":  50 + 20*float64(i), // spread far past the bound
			"allocs_per_op": 3,
		})
		change = append(change, map[string]float64{
			"queries_per_s": 150 + x, "query_p50_us": 140 + x,
			"query_p99_us":  230 - 20*float64(i), // better in some pairs, worse in others
			"allocs_per_op": 3,
		})
	}
	got, out, err := verdicts(t, writeRuns(t, base, 0), writeRuns(t, change, 5))
	want := map[string]string{
		"queries_per_s": verdictWon, "query_p50_us": verdictWorse, "query_p99_us": verdictUnresolved,
		"allocs_per_op": verdictSame, "failed ops": verdictWorse,
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, got[m], v, out)
		}
	}
	if !strings.Contains(out, "10/10") || !strings.Contains(out, "0/10") {
		t.Errorf("wins not counted:\n%s", out)
	}
	if err == nil || !strings.Contains(err.Error(), "2 metric(s) worse") {
		t.Errorf("err = %v, want the worse metric and the failed share named", err)
	}
}

// An A/A set, the same runs on both sides in another order, wins
// nothing: no metric is won or worse, and the comparison passes.
func TestPairsAAReportsNothing(t *testing.T) {
	var runs []map[string]float64
	for i := 0; i < 10; i++ {
		x := float64((i*7)%10) / 10
		runs = append(runs, map[string]float64{
			"queries_per_s": 100 + x, "query_p50_us": 100 + x, "query_p99_us": 200 + 3*x, "allocs_per_op": 3,
		})
	}
	reversed := make([]map[string]float64, len(runs))
	for i, r := range runs {
		reversed[len(runs)-1-i] = r
	}
	got, out, err := verdicts(t, writeRuns(t, runs, 1), writeRuns(t, reversed, 1))
	if err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out)
	}
	if len(got) != 5 {
		t.Fatalf("%d verdicts, want 5:\n%s", len(got), out)
	}
	for m, v := range got {
		if v != verdictSame {
			t.Errorf("A/A: %s reads %q, want %q\n%s", m, v, verdictSame, out)
		}
	}
}
