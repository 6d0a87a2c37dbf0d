package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command with args and returns its output and
// error.
func experiments(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// -list prints every registered experiment id.
func TestListNamesEveryExperiment(t *testing.T) {
	out, err := experiments("-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, id := range harness.IDs() {
		if !listed[id] {
			t.Errorf("-list does not name %q:\n%s", id, out)
		}
	}
}

// One cheap experiment with -csv prints its "# id — title" header and
// then the harness's table as CSV: a header row and one numeric row per
// measured point, the same bytes the harness renders in process.
func TestCSVOutput(t *testing.T) {
	const id = "abl-cache"
	out, err := experiments("-exp", id, "-scale", "0.01", "-queries", "3", "-csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	tb, err := harness.Run(id, harness.Options{Scale: 0.01, Queries: 3, Seed: 1998})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "# %s — %s\n", tb.ID, tb.Title)
	if err := tb.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if out != want.String() {
		t.Fatalf("output\n%s\nwant\n%s", out, want.String())
	}

	header, body, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(header, "# "+id+" — ") {
		t.Errorf("header line %q", header)
	}
	rows, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, body)
	}
	if len(rows) < 2 {
		t.Fatalf("want a header row and data rows, got %d rows", len(rows))
	}
	for _, row := range rows[1:] {
		for _, v := range row {
			if _, err := strconv.ParseFloat(v, 64); v != "" && err != nil {
				t.Errorf("row %v: %q is not a number", row, v)
			}
		}
	}
}

// An unknown -exp fails with an error naming it, not a panic.
func TestUnknownExperiment(t *testing.T) {
	out, err := experiments("-exp", "no-such-experiment")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(out, `unknown experiment "no-such-experiment"`) {
		t.Errorf("output does not name the experiment:\n%s", out)
	}
	if strings.Contains(out, "panic") || strings.Contains(out, "goroutine ") {
		t.Errorf("exited with a panic:\n%s", out)
	}
}
