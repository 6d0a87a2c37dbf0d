//go:build mutate

package mutate

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMutations runs every row of the table: a fresh copy of the
// module, the row's edit, and its check, which must fail with the
// row's substring. The copy is made at one fixed path for every row,
// so the build cache serves the packages a row leaves unchanged.
func TestMutations(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(os.TempDir(), "simquery-mutate")
	t.Cleanup(func() { os.RemoveAll(work) })
	for _, m := range rows {
		t.Run(m.Name, func(t *testing.T) {
			if err := os.RemoveAll(work); err != nil {
				t.Fatal(err)
			}
			if err := copyTracked(root, work); err != nil {
				t.Fatal(err)
			}
			if err := m.apply(work); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(m.Check[0], m.Check[1:]...)
			cmd.Dir = work
			start := time.Now()
			out, err := cmd.CombinedOutput()
			t.Logf("%s: %s, %s", m.Class, strings.Join(m.Check, " "), time.Since(start).Round(time.Second))
			var exit *exec.ExitError
			switch {
			case err == nil:
				t.Errorf("the check passes with the mutation: nothing catches %q any more\n%s", m.Class, tail(out))
			case !errors.As(err, &exit):
				t.Errorf("the check did not run: %v\n%s", err, tail(out))
			case bytes.Contains(out, []byte("[build failed]")):
				t.Errorf("the mutated copy does not build: a row must compile\n%s", tail(out))
			case !bytes.Contains(out, []byte(m.Want)):
				t.Errorf("the check fails, but not with %q\n%s", m.Want, tail(out))
			default:
				t.Logf("caught: %s", caughtLine(out, m.Want))
			}
		})
	}
}

// caughtLine returns the first output line that holds want.
func caughtLine(out []byte, want string) string {
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, want) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

// tail returns the last lines of a check's output.
func tail(out []byte) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-40):], "\n")
}
