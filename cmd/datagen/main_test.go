package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests.
const runMainEnv = "DATAGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// datagen runs the command with args and returns its output and error.
func datagen(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// A fixed seed prints fixed statistics.
func TestStatsLines(t *testing.T) {
	out, err := datagen("-set", "gaussian", "-n", "2000", "-dim", "3", "-seed", "7", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	want := `generated 2000 points, 3-d, set gaussian, seed 7
axis 0: min 0.1574 max 0.9095 mean 0.5011
axis 1: min 0.0835 max 0.9012 mean 0.4993
axis 2: min 0.1376 max 0.9446 mean 0.4999
`
	if out != want {
		t.Errorf("output\n%s\nwant\n%s", out, want)
	}
}

// What -out writes loads back as the points the generator makes, bit
// for bit.
func TestOutRoundTrips(t *testing.T) {
	for _, c := range []struct {
		set    string
		n, dim int
		seed   int64
	}{
		{"clustered", 700, 4, 3},
		{"longbeach", 500, 2, 1},
	} {
		path := filepath.Join(t.TempDir(), c.set+".bin")
		out, err := datagen("-set", c.set, "-n", strconv.Itoa(c.n), "-dim", strconv.Itoa(c.dim),
			"-seed", strconv.FormatInt(c.seed, 10), "-out", path)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.set, err, out)
		}
		if !strings.Contains(out, "wrote "+path) {
			t.Errorf("%s: no write reported:\n%s", c.set, out)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dataset.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.set, err)
		}
		want, err := dataset.ByName(c.set, c.n, c.dim, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.n || len(want) != c.n {
			t.Fatalf("%s: loaded %d points, generated %d, want %d", c.set, len(got), len(want), c.n)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: point %d has dim %d, want %d", c.set, i, len(got[i]), len(want[i]))
			}
			for a := range want[i] {
				if math.Float64bits(got[i][a]) != math.Float64bits(want[i][a]) {
					t.Fatalf("%s: point %d axis %d = %v, want %v", c.set, i, a, got[i][a], want[i][a])
				}
			}
		}
	}
}

// Impossible sizes are refused with an error that names the flag, not a
// panic, and nothing is written.
func TestBadSizesAreRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-set", "uniform", "-n", "-1"}, "-n -1"},
		{[]string{"-set", "california", "-n", "-5"}, "-n -5"},
		{[]string{"-set", "gaussian", "-dim", "0"}, "-dim 0"},
		{[]string{"-set", "uniform", "-n", "10", "-dim", "-3"}, "-dim -3"},
	} {
		path := filepath.Join(t.TempDir(), "out.bin")
		out, err := datagen(append(c.args, "-out", path)...)
		if err == nil {
			t.Errorf("%v: exit status 0:\n%s", c.args, out)
			continue
		}
		if !strings.Contains(out, c.flag) {
			t.Errorf("%v: the error does not name %q:\n%s", c.args, c.flag, out)
		}
		if strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
			t.Errorf("%v: panicked:\n%s", c.args, out)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: wrote %s", c.args, path)
		}
	}
}
