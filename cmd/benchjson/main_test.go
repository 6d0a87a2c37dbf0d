package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkKernels/scalar/dmin/d=2-8         	    3000	       450.0 ns/op	        92.00 entries/batch
BenchmarkKernels/scalar/dmin/d=2-8         	    3000	       470.0 ns/op	        92.00 entries/batch
BenchmarkKernels/batch/dmin/d=2-8          	    3000	       230.0 ns/op	        92.00 entries/batch
BenchmarkKernels/batch/dmin/d=2-8          	    3000	       230.0 ns/op	        92.00 entries/batch
BenchmarkKNNBBSS-8                         	    1000	     91000 ns/op	        42.50 pages/query	    2048 B/op	      12 allocs/op
PASS
ok  	repro	2.034s
pkg: repro/internal/query
BenchmarkMakeCandidates/batch/d=2/fanout=92/spheres=false-8   	   10000	      1200 ns/op
BenchmarkMakeCandidates/scalar/d=2/fanout=92/spheres=false-8  	   10000	      4800 ns/op
PASS
ok  	repro/internal/query	1.002s
`

func parseSample(t *testing.T) *Report {
	t.Helper()
	rep, err := parseBench(strings.Split(sampleOutput, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseHeaderAndAveraging(t *testing.T) {
	rep := parseSample(t)
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %s/%s/%s", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	var scalar *Benchmark
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkKernels/scalar/dmin/d=2" {
			scalar = &rep.Benchmarks[i]
		}
	}
	if scalar == nil {
		t.Fatal("scalar dmin benchmark not found (procs suffix not stripped?)")
	}
	if scalar.Samples != 2 || scalar.NsPerOp != 460.0 || scalar.Procs != 8 {
		t.Errorf("averaging: samples=%d ns=%g procs=%d, want 2/460/8",
			scalar.Samples, scalar.NsPerOp, scalar.Procs)
	}
	if scalar.Package != "repro" {
		t.Errorf("package = %q", scalar.Package)
	}
	if scalar.Metrics["entries/batch"] != 92 {
		t.Errorf("custom metric entries/batch = %g", scalar.Metrics["entries/batch"])
	}
}

func TestMedianDiscardsSpike(t *testing.T) {
	// A descheduled CI sample (3x slower) must not move the report.
	rep, err := parseBench([]string{
		"BenchmarkX-8 100 100 ns/op",
		"BenchmarkX-8 100 102 ns/op",
		"BenchmarkX-8 100 300 ns/op",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks[0].NsPerOp; got != 102 {
		t.Errorf("median ns/op = %g, want 102", got)
	}
}

// TestParseRecordsSpread: a row folded from several runs carries
// (max − min) ÷ median for ns/op, B/op and allocs/op; a single run has
// no spread to record, and a count that reads 0 in most runs is measured
// against its maximum.
func TestParseRecordsSpread(t *testing.T) {
	rep, err := parseBench([]string{
		"BenchmarkMiss-2 100 1000 ns/op 3000 B/op 50 allocs/op",
		"BenchmarkMiss-2 100 1100 ns/op 3300 B/op 55 allocs/op",
		"BenchmarkMiss-2 100 1200 ns/op 3150 B/op 52 allocs/op",
		"BenchmarkSteady-2 100 500 ns/op 64 B/op 4 allocs/op",
		"BenchmarkSteady-2 100 520 ns/op 64 B/op 4 allocs/op",
		"BenchmarkOnce-2 100 500 ns/op 64 B/op 4 allocs/op",
		"BenchmarkNoMem-2 100 500 ns/op",
		"BenchmarkNoMem-2 100 500 ns/op",
		"BenchmarkRare-2 100 500 ns/op 0 B/op 0 allocs/op",
		"BenchmarkRare-2 100 500 ns/op 0 B/op 0 allocs/op",
		"BenchmarkRare-2 100 500 ns/op 16 B/op 1 allocs/op",
	})
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		by[b.Name] = b
	}
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if sp := by["BenchmarkMiss"].Spread; sp == nil || !near(sp.NsPerOp, 200.0/1100) ||
		sp.BytesPerOp == nil || !near(*sp.BytesPerOp, 300.0/3150) ||
		sp.AllocsPerOp == nil || !near(*sp.AllocsPerOp, 5.0/52) {
		t.Errorf("BenchmarkMiss spread = %+v", sp)
	}
	if sp := by["BenchmarkSteady"].Spread; sp == nil || !near(sp.NsPerOp, 20.0/510) || *sp.BytesPerOp != 0 || *sp.AllocsPerOp != 0 {
		t.Errorf("BenchmarkSteady spread = %+v", sp)
	}
	if sp := by["BenchmarkOnce"].Spread; sp != nil {
		t.Errorf("a single run has spread %+v", sp)
	}
	if sp := by["BenchmarkNoMem"].Spread; sp == nil || sp.NsPerOp != 0 || sp.BytesPerOp != nil || sp.AllocsPerOp != nil {
		t.Errorf("BenchmarkNoMem spread = %+v", sp)
	}
	if sp := by["BenchmarkRare"].Spread; sp == nil || *sp.AllocsPerOp != 1 || *sp.BytesPerOp != 1 {
		t.Errorf("BenchmarkRare spread = %+v", sp)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil || back.Benchmarks[0].Spread == nil {
		t.Errorf("spread does not survive the report file: %v", err)
	}
}

func TestParseBenchmemAndCustomMetrics(t *testing.T) {
	rep := parseSample(t)
	for _, b := range rep.Benchmarks {
		if b.Name != "BenchmarkKNNBBSS" {
			continue
		}
		if b.BytesPerOp == nil || *b.BytesPerOp != 2048 {
			t.Errorf("bytes/op = %v", b.BytesPerOp)
		}
		if b.AllocsPerOp == nil || *b.AllocsPerOp != 12 {
			t.Errorf("allocs/op = %v", b.AllocsPerOp)
		}
		if b.Metrics["pages/query"] != 42.5 {
			t.Errorf("pages/query = %g", b.Metrics["pages/query"])
		}
		return
	}
	t.Fatal("BenchmarkKNNBBSS not parsed")
}

func TestSpeedupPairing(t *testing.T) {
	rep := parseSample(t)
	if len(rep.Speedups) != 2 {
		t.Fatalf("derived %d speedups, want 2: %+v", len(rep.Speedups), rep.Speedups)
	}
	// Sorted by name: BenchmarkKernels/... before BenchmarkMakeCandidates/...
	k := rep.Speedups[0]
	if k.Name != "BenchmarkKernels/dmin/d=2" {
		t.Errorf("pair name = %q", k.Name)
	}
	if k.Speedup != 2.0 {
		t.Errorf("kernel speedup = %g, want 2.0 (460/230)", k.Speedup)
	}
	mc := rep.Speedups[1]
	if mc.Name != "BenchmarkMakeCandidates/d=2/fanout=92/spheres=false" || mc.Speedup != 4.0 {
		t.Errorf("candidates pair = %+v", mc)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench([]string{"PASS", "ok  repro  1s"}); err == nil {
		t.Error("want error for input without benchmark lines")
	}
}

func TestParseSkipsMalformedLines(t *testing.T) {
	rep, err := parseBench([]string{
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkOK-8 100 12.5 ns/op",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkOK" {
		t.Errorf("benchmarks = %+v", rep.Benchmarks)
	}
}

func allocBench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Package: "repro", Samples: 5, NsPerOp: ns, AllocsPerOp: &allocs}
}

// spreadBench is allocBench whose runs' allocs/op spread by frac of
// their median.
func spreadBench(name string, ns, allocs, frac float64) Benchmark {
	b := allocBench(name, ns, allocs)
	b.Spread = &Spread{NsPerOp: 0.5, AllocsPerOp: &frac}
	return b
}

// TestCompareGatesOnAllocs: an allocs/op rise beyond the threshold is
// counted (runCompare turns the count into a non-zero exit); ns/op
// regressions, rises within the threshold, falls, and benchmarks
// without -benchmem data are not.
func TestCompareGatesOnAllocs(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		allocBench("BenchmarkKNNCRSS", 20000, 10),
		allocBench("BenchmarkKNNFPSS", 20000, 40),
		allocBench("BenchmarkKernels/batch/dmin/d=2", 200, 0),
		{Name: "BenchmarkNoBenchmem", Package: "repro", NsPerOp: 100},
	}}
	cases := []struct {
		name string
		cur  []Benchmark
		want int
		say  string
	}{
		{"unchanged", base.Benchmarks, 0, ""},
		{"slower only", []Benchmark{allocBench("BenchmarkKNNCRSS", 90000, 10)}, 0, "SLOWER"},
		{"within threshold", []Benchmark{allocBench("BenchmarkKNNFPSS", 20000, 44)}, 0, ""},
		{"fewer", []Benchmark{allocBench("BenchmarkKNNCRSS", 20000, 4)}, 0, ""},
		{"one more of ten", []Benchmark{allocBench("BenchmarkKNNCRSS", 20000, 12)}, 1, "ALLOCS BenchmarkKNNCRSS allocates more: 10 -> 12 allocs/op"},
		{"first allocation", []Benchmark{allocBench("BenchmarkKernels/batch/dmin/d=2", 200, 1)}, 1, "0 -> 1 allocs/op"},
		{"no data", []Benchmark{allocBench("BenchmarkNoBenchmem", 100, 7), {Name: "BenchmarkKNNCRSS", Package: "repro", NsPerOp: 20000}}, 0, ""},
		{"two", []Benchmark{allocBench("BenchmarkKNNCRSS", 20000, 63), allocBench("BenchmarkKNNFPSS", 20000, 45)}, 2, "::error title=allocation regression::"},
		// The new report's own runs: allocs/op that differ by more than
		// 2 % of their median fail whatever the baseline reads — even a
		// lower median, even a benchmark the baseline does not have;
		// a noisy ns/op never does.
		{"steady runs", []Benchmark{spreadBench("BenchmarkKNNCRSS", 20000, 10, 0)}, 0, ""},
		{"runs within 2%", []Benchmark{spreadBench("BenchmarkKNNFPSS", 20000, 40, 0.02)}, 0, ""},
		{"runs apart", []Benchmark{spreadBench("BenchmarkKNNFPSS", 20000, 30, 0.05)}, 1, "ALLOCS BenchmarkKNNFPSS allocates differently from run to run: allocs/op spread 5.0% of the median 30 over 5 runs"},
		{"runs apart, new benchmark", []Benchmark{spreadBench("BenchmarkEngineMissPath", 500000, 52, 0.046)}, 1, "::error title=timing-dependent allocation::"},
		{"apart and more", []Benchmark{spreadBench("BenchmarkKNNCRSS", 20000, 12, 0.25)}, 2, "allocates more"},
	}
	for _, c := range cases {
		var out strings.Builder
		got := compareReports(&out, base, &Report{Benchmarks: c.cur}, 10, true)
		if got != c.want {
			t.Errorf("%s: %d allocation regressions, want %d\n%s", c.name, got, c.want, out.String())
		}
		if !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.say, out.String())
		}
		if (got > 0) != strings.Contains(out.String(), "::error") {
			t.Errorf("%s: ::error:: annotations do not match the count:\n%s", c.name, out.String())
		}
	}
}

// TestRunCompareExitStatus drives compare mode over report files: the
// error main turns into exit status 1 comes back exactly when allocs/op
// rose.
func TestRunCompareExitStatus(t *testing.T) {
	write := func(name string, allocs float64) string {
		path := filepath.Join(t.TempDir(), name)
		buf, err := json.Marshal(Report{SchemaVersion: SchemaVersion, Date: "2026-09-30",
			Benchmarks: []Benchmark{allocBench("BenchmarkKNNCRSS", 20000, allocs)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, worse := write("base.json", 4), write("same.json", 4), write("worse.json", 5)
	// The same median, parsed from three runs that do not agree.
	runs := filepath.Join(t.TempDir(), "runs.txt")
	unsteady := filepath.Join(t.TempDir(), "unsteady.json")
	if err := os.WriteFile(runs, []byte(`pkg: repro
BenchmarkKNNCRSS-2   20000   20000 ns/op   1800 B/op   4 allocs/op
BenchmarkKNNCRSS-2   20000   20100 ns/op   1800 B/op   4 allocs/op
BenchmarkKNNCRSS-2   20000   20050 ns/op   1850 B/op   5 allocs/op
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runParse([]string{"-o", unsteady, runs}); err != nil {
		t.Fatal(err)
	}
	if err := runCompare([]string{base, unsteady}); err == nil {
		t.Error("allocs/op 4, 4, 5 over three runs passed the gate")
	}
	if err := runCompare([]string{base, same}); err != nil {
		t.Errorf("unchanged allocs/op: %v", err)
	}
	if err := runCompare([]string{base, worse}); err == nil {
		t.Error("allocs/op 4 -> 5 passed the gate")
	}
}
