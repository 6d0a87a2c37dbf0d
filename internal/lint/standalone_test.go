package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeModule lays out a two-file module "m": the root package's Stats
// runs lock before reading a field guarded by mu, and package q, which
// imports it, carries the given directive above its call.
func writeModule(t *testing.T, dir, lock, directive string) {
	t.Helper()
	files := map[string]string{
		"t.go": fmt.Sprintf(`package m

import "sync"

// T holds the counters.
type T struct {
	mu sync.Mutex
	A  int
	B  int // guarded by mu
}

// Stats reports the counters.
func (t *T) Stats() int {
	%s
	return t.A + t.B
}
`, lock),
		"q/q.go": fmt.Sprintf(`package q

import "m"

// Sum adds the counters.
func Sum(t *m.T) int {
	%s
	return t.Stats()
}
`, directive),
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandalone drives cmd/simquerylint's entry point over a two-file
// module: the exit codes, the text and -github renderings of a finding,
// and the stale-directive audit, whose -github annotation is a warning.
func TestStandalone(t *testing.T) {
	run := func(args ...string) (code int, stdout string) {
		var out, errOut bytes.Buffer
		code = Standalone(args, &out, &errOut)
		t.Logf("simquerylint %s: exit %d\n%s%s", strings.Join(args, " "), code, &out, &errOut)
		return code, out.String()
	}
	dir := t.TempDir()
	mod := []string{"-source", dir, "-module", "m"}
	const locked = "t.mu.Lock()\n\tdefer t.mu.Unlock()"

	writeModule(t, dir, locked, "")
	if code, out := run(append(mod, "-audit")...); code != 0 || out != "" {
		t.Errorf("clean module: exit %d, output %q; want 0 and nothing", code, out)
	}

	// A seeded finding: Stats reads B without its lock.
	writeModule(t, dir, "", "")
	code, out := run(append(mod, "-github")...)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if code != 1 || len(lines) != 2 {
		t.Fatalf("seeded finding under -github: exit %d, %d lines; want 1 and a finding plus its annotation", code, len(lines))
	}
	m := regexp.MustCompile(`^(.*t\.go):(\d+):(\d+): \[lockcheck\] (.*B.*)$`).FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("finding line %q is not file:line:col: [lockcheck] message", lines[0])
	}
	annotation := fmt.Sprintf("::error file=%s,line=%s,col=%s::[lockcheck] %s", m[1], m[2], m[3], m[4])
	if lines[1] != annotation {
		t.Errorf("annotation %q, want %q", lines[1], annotation)
	}

	// A directive that suppresses nothing is news only to the audit.
	writeModule(t, dir, locked, "//lint:allow floatcmp nothing here compares floats")
	if code, out := run(mod...); code != 0 || out != "" {
		t.Errorf("stale directive without -audit: exit %d, output %q", code, out)
	}
	if code, out := run(append(mod, "-audit")...); code != 1 ||
		!regexp.MustCompile(`^.*q\.go:\d+:\d+: \[audit\] stale //lint:allow floatcmp`).MatchString(out) {
		t.Errorf("stale directive under -audit: exit %d, output %q", code, out)
	}
	if code, out := run(append(mod, "-audit", "-github")...); code != 1 ||
		!regexp.MustCompile(`(?m)^::warning file=.*q\.go,line=\d+,col=\d+::\[audit\] stale`).MatchString(out) {
		t.Errorf("stale directive under -audit -github: exit %d, output %q; want a ::warning annotation", code, out)
	}

	// Driver errors: an unknown flag, a directory that does not load.
	if code, _ := run("-nope"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	writeModule(t, dir, "undefined()", "")
	if code, _ := run(mod...); code != 2 {
		t.Errorf("module that does not type-check: exit %d, want 2", code)
	}
	if code, _ := run("-source", filepath.Join(dir, "missing")); code != 2 {
		t.Errorf("missing directory: exit %d, want 2", code)
	}
}
