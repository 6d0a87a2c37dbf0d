package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests: the smoke tests drive the real
// command line, flag parsing and exit codes included.
const runMainEnv = "SIMQUERY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// simquery runs the command with args and returns its combined output
// and exit code.
func simquery(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("simquery %v: %v", args, err)
		return "", 0
	}
}

// mustRun runs the command, requires exit code 0 and every want line
// fragment in its output, and returns the output.
func mustRun(t *testing.T, want []string, args ...string) string {
	t.Helper()
	out, code := simquery(t, args...)
	if code != 0 {
		t.Fatalf("simquery %v exited %d:\n%s", args, code, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("simquery %v: output lacks %q:\n%s", args, w, out)
		}
	}
	return out
}

func TestAllAlgorithmsTimed(t *testing.T) {
	want := []string{"indexed 2000 points (2-d) on 10 disks"}
	for _, alg := range []string{"bbss", "fpss", "crss", "woptss", "bfss", "eps-series"} {
		want = append(want, "["+alg+"] visited ")
	}
	out := mustRun(t, want, "-n", "2000", "-alg", "all", "-timing")
	if got := strings.Count(out, "simulated response time:"); got != 6 {
		t.Errorf("%d simulated response times, want one per algorithm:\n%s", got, out)
	}
}

// The file store survives the process: a second run over the same
// directory recovers the committed tree instead of rebuilding it.
func TestFileStoreRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-n", "2000", "-store", "file", "-data-dir", dir}
	first := mustRun(t, []string{"indexed 2000 points", "durable store: "}, args...)
	if strings.Contains(first, "recovered") {
		t.Errorf("first run over an empty directory recovered a tree:\n%s", first)
	}
	mustRun(t, []string{"recovered 2000 committed points from " + dir, "indexed 2000 points"}, args...)
}

// A dead drive with a mirror behind it: the engine redirects and
// reports the fault path.
func TestEngineFailedDrive(t *testing.T) {
	mustRun(t, []string{"concurrent engine (10 workers): 1 queries", "  fault path: "},
		"-n", "2000", "-engine", "-mirrors", "2", "-fail-drive", "0")
}

func TestRemovedMmapFlag(t *testing.T) {
	out, code := simquery(t, "-mmap")
	if code != 2 || !strings.Contains(out, "flag provided but not defined: -mmap") {
		t.Errorf("-mmap exited %d, want 2 with an undefined-flag error:\n%s", code, out)
	}
}
