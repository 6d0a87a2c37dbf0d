package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests.
const runMainEnv = "TREESTAT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// treestat runs the command with args, requires it to succeed and
// returns its output.
func treestat(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("treestat %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// placementLines are the per-disk distribution lines and the invariant
// verdict: what a reopen must reproduce.
func placementLines(t *testing.T, out string) string {
	t.Helper()
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  disk ") || strings.HasPrefix(line, "invariants: OK") {
			keep = append(keep, line)
		}
	}
	if len(keep) != 11 {
		t.Fatalf("want 10 disk lines and the invariants line, got %d lines:\n%s", len(keep), out)
	}
	return strings.Join(keep, "\n")
}

// A tree built into a directory and a reopen of that directory print
// the same page-to-disk distribution and pass the same audit.
func TestDirReopenPrintsTheSameDistribution(t *testing.T) {
	for _, policy := range []string{"proximity", "random"} {
		dir := filepath.Join(t.TempDir(), "tree")
		args := []string{"-set", "california", "-n", "4000", "-disks", "10", "-policy", policy, "-dir", dir}
		built := treestat(t, args...)
		if !strings.Contains(built, "built, committed and checkpointed") {
			t.Fatalf("first run did not build:\n%s", built)
		}
		again := treestat(t, args...)
		if !strings.Contains(again, "reopened, 4000 points") {
			t.Fatalf("second run did not reopen:\n%s", again)
		}
		if a, b := placementLines(t, built), placementLines(t, again); a != b {
			t.Errorf("%s: built\n%s\nreopened\n%s", policy, a, b)
		}
	}
}

// The header line prints the leaf and the directory capacity: at 8-d a
// 4 KiB page holds 56 points or 29 rectangles, and an SR tree's leaves
// hold sphere entries like its directory.
func TestCapacities(t *testing.T) {
	args := []string{"-set", "gaussian", "-n", "3000", "-dim", "8", "-disks", "4"}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, "page 4096B (capacity: leaf 56 entries, directory 29)"},
		{[]string{"-sr"}, "page 4096B (capacity: leaf 19 entries, directory 19)"},
	} {
		out := treestat(t, append(args, c.flags...)...)
		if !strings.Contains(out, c.want) {
			t.Errorf("treestat %v: no line with %q:\n%s", c.flags, c.want, out)
		}
	}
}
