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

// run runs the command with args and returns its output.
func run(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// treestat runs the command with args, requires it to succeed and
// returns its output.
func treestat(t *testing.T, args ...string) string {
	t.Helper()
	out, err := run(args...)
	if err != nil {
		t.Fatalf("treestat %v: %v\n%s", args, err, out)
	}
	return out
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
// 4 KiB page holds 56 points or 29 rectangles, or 19 sphere entries in
// an SR tree's directory.
func TestCapacities(t *testing.T) {
	args := []string{"-set", "gaussian", "-n", "3000", "-dim", "8", "-disks", "4"}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, "page 4096B (capacity: leaf 56 entries, directory 29)"},
		{[]string{"-sr"}, "page 4096B (capacity: leaf 56 entries, directory 19)"},
	} {
		out := treestat(t, append(args, c.flags...)...)
		if !strings.Contains(out, c.want) {
			t.Errorf("treestat %v: no line with %q:\n%s", c.flags, c.want, out)
		}
	}
}

// A directory written with another page layout, or another array, is
// refused: treestat exits non-zero, naming the field, and builds no
// tree in its place.
func TestDirMismatchExitsNonZero(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tree")
	args := []string{"-set", "california", "-n", "2000", "-disks", "4", "-dir", dir}
	treestat(t, args...)
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-page", "1024"}, "PageSize"},
		{[]string{"-sr"}, "UseSpheres"},
		{[]string{"-disks", "5"}, "NumDisks"},
	} {
		out, err := run(append(args, c.flags...)...)
		if err == nil || !strings.Contains(out, c.want) || strings.Contains(out, "invariants: OK") {
			t.Errorf("treestat %v over a directory written without them: %v\n%s", c.flags, err, out)
		}
	}
}

// A build whose checkpoint cannot write the data file exits non-zero:
// the directory's page file is /dev/full, where every write fails with
// ENOSPC while the log and the record tables are real files.
func TestDirFullDiskExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "pages.db")); err != nil {
		t.Fatal(err)
	}
	out, err := run("-set", "california", "-n", "2000", "-disks", "4", "-dir", dir)
	if err == nil || !strings.Contains(out, "no space left on device") {
		t.Errorf("treestat -dir over a full disk: %v\n%s", err, out)
	}
}
