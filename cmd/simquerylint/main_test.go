package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests.
const runMainEnv = "SIMQUERYLINT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// simquerylint runs the command with args and returns its stdout, its
// stderr and its error.
func simquerylint(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// The command exits 0 on a clean module and 1, naming the finding, once
// the module compares two floats exactly. The one-file module is named
// floatcmp, which puts it in that analyzer's scope.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(cmp string) {
		t.Helper()
		src := "package floatcmp\n\n// Same reports whether two distances are the same.\nfunc Same(a, b float64) bool {\n\treturn " + cmp + "\n}\n"
		if err := os.WriteFile(filepath.Join(dir, "d.go"), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"-source", dir, "-module", "floatcmp", "-audit"}

	write("a-b < 1e-9 && b-a < 1e-9")
	if out, errOut, err := simquerylint(args...); err != nil || out != "" {
		t.Fatalf("clean module: %v, output %q\n%s", err, out, errOut)
	}

	write("a == b")
	out, errOut, err := simquerylint(args...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("module with a float ==: err %v, want exit status 1\n%s%s", err, out, errOut)
	}
	want := filepath.Join(dir, "d.go") + ":5:11: [floatcmp] exact == comparison of floating-point values"
	if !strings.HasPrefix(out, want) || strings.Count(out, "\n") != 1 {
		t.Errorf("output %q, want one finding starting %q", out, want)
	}
	if !strings.Contains(errOut, "1 finding(s)") {
		t.Errorf("stderr %q does not count the finding", errOut)
	}
}
