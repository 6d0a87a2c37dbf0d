// Package mutate is the table of recorded mutations: each row is one
// defect written as an exact edit of one source file, with the check
// that must fail once the edit is made and a substring of that
// failure. A row shows that some test (or `make crash`, `make
// lockrank`, `make analyze`) still catches its bug class; a check that
// goes vacuous, or a refactor that drops the code a row edits, fails
// the row.
//
// `make mutate` runs the table (the mutate build tag's TestMutations):
// per row it copies the module's tracked sources to a scratch
// directory, applies the edit there and runs the check. The table
// itself is stdlib-only data; TestFragmentsMatch, in tier-1, requires
// every row's fragment to occur exactly once in the current tree, so a
// refactor that moves a fragment carries its row forward in the same
// change.
//
// A change that deletes a check (an analyzer, a test, an assertion)
// adds the row that shows what still catches the deleted check's
// class.
package mutate

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A mutation is one recorded defect and the check that catches it.
type mutation struct {
	Name  string   // subtest name
	Class string   // the bug class the row stands for
	File  string   // slash-separated path from the module root
	From  string   // exact fragment of File; must occur once
	To    string   // what the fragment becomes
	Check []string // command run at the root of the mutated copy; must fail
	Want  string   // substring of the failing check's output
}

// apply makes the row's edit in the module rooted at root.
func (m mutation) apply(root string) error {
	path := filepath.Join(root, filepath.FromSlash(m.File))
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if n := bytes.Count(src, []byte(m.From)); n != 1 {
		return fmt.Errorf("%s: the fragment occurs %d times, want once (a stale row): %q", m.File, n, m.From)
	}
	return os.WriteFile(path, bytes.Replace(src, []byte(m.From), []byte(m.To), 1), 0o644)
}

// copyTracked copies the module at root into dst: the files git tracks
// and the untracked ones it does not ignore, so build outputs stay
// behind and a change not yet committed comes along.
func copyTracked(root, dst string) error {
	cmd := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git ls-files: %w", err)
	}
	for _, name := range strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00") {
		src := filepath.Join(root, filepath.FromSlash(name))
		info, err := os.Lstat(src)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted in the work tree, not yet in the index
		}
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		path := filepath.Join(dst, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, data, info.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

// goTest is the check `go test -count=1 [flags] -run run pkg`.
func goTest(pkg, run string, flags ...string) []string {
	cmd := append([]string{"go", "test", "-count=1"}, flags...)
	return append(cmd, "-run", run, pkg)
}
