package mutate

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFragmentsMatch requires every row's fragment to occur exactly
// once in the current tree: a change that moves or rewrites the code a
// row edits must carry the row along.
func TestFragmentsMatch(t *testing.T) {
	root := filepath.Join("..", "..")
	names := map[string]bool{}
	for _, m := range rows {
		if names[m.Name] {
			t.Errorf("row %q: name used twice", m.Name)
		}
		names[m.Name] = true
		if m.Class == "" || len(m.Check) == 0 || m.Want == "" || m.From == m.To {
			t.Errorf("row %q: needs a class, a check, a substring and an edit", m.Name)
		}
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
		if err != nil {
			t.Errorf("row %q: %v", m.Name, err)
			continue
		}
		if n := strings.Count(string(src), m.From); n != 1 {
			t.Errorf("row %q: fragment occurs %d times in %s, want once: %q", m.Name, n, m.File, m.From)
		}
	}
}

// TestApply pins the edit: the fragment is replaced once, and a
// fragment that does not occur exactly once fails the row without
// touching the file.
func TestApply(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "a.go")
	const src = "x := 1\ny := 1\n"
	for _, c := range []struct {
		from, want string
	}{
		{"x := 1\n", "x := 2\ny := 1\n"},
		{"z := 1\n", src}, // stale: gone from the file
		{" := 1\n", src},  // ambiguous: twice
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		err := mutation{File: "a.go", From: c.from, To: "x := 2\n"}.apply(root)
		got, _ := os.ReadFile(path)
		if string(got) != c.want {
			t.Errorf("fragment %q: file %q, want %q", c.from, got, c.want)
		}
		if stale := c.want == src; stale != (err != nil) {
			t.Errorf("fragment %q: error %v", c.from, err)
		}
	}
}

// TestCopyTracked copies this module and finds the table's own source
// in the copy, and no build output.
func TestCopyTracked(t *testing.T) {
	root := filepath.Join("..", "..")
	if err := exec.Command("git", "-C", root, "rev-parse", "--git-dir").Run(); err != nil {
		t.Skipf("not a git work tree: %v", err)
	}
	dst := t.TempDir()
	if err := copyTracked(root, dst); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"go.mod", "Makefile", "internal/mutate/rows.go"} {
		if _, err := os.Stat(filepath.Join(dst, filepath.FromSlash(name))); err != nil {
			t.Errorf("copy lacks %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dst, "bin")); err == nil {
		t.Errorf("copy holds bin/, which git ignores")
	}
}
