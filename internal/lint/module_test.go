package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoProtocolsClean is the standing gate behind the PR 8 fixes: it
// loads the whole module from source and requires the full analyzer
// suite — including the suppression audit — to come back empty. Any
// reintroduced unpaired trace event, unsynced publish, leaked cancel,
// dropped storage error, or stale //lint:allow fails this test (and
// `make analyze`/`make audit`, which run the same code).
func TestRepoProtocolsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module source load")
	}
	root := filepath.Join("..", "..")
	pkgs, err := LoadModule(root, "repro")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages — the walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := Audit(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Pkg.Path(), err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestLoadModuleExternalTestSeesExportTest: an external test package is
// checked as `go test` builds it — against its package with the
// in-package test files, and with every module package it imports built
// against that same variant, so a type passed between them is one type.
func TestLoadModuleExternalTestSeesExportTest(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"p/p.go":           "package p\n\ntype Store struct{ n int }\n",
		"p/export_test.go": "package p\n\nfunc (s *Store) Count() int { return s.n }\n",
		"p/x_test.go":      "package p_test\n\nimport (\n\t\"m/p\"\n\t\"m/q\"\n)\n\nvar _ = q.Wrap(&p.Store{}).Count()\n",
		"q/q.go":           "package q\n\nimport \"m/p\"\n\nfunc Wrap(s *p.Store) *p.Store { return s }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadModule(root, "m")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Pkg.Path())
	}
	if want := "m/p m/p_test m/q"; strings.Join(paths, " ") != want {
		t.Errorf("loaded %v, want %s", paths, want)
	}
}

// TestAuditReportsStaleDirective pins the audit semantics: a directive
// that suppresses a live finding is kept silent, one that suppresses
// nothing is reported as stale at its own position.
func TestAuditReportsStaleDirective(t *testing.T) {
	pkg := parseOnly(t, "p.go", `package p

import "sync"

type T struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (t *T) Snapshot() int {
	return t.n //lint:allow lockcheck the caller holds t.mu
}

func Stale() int {
	//lint:allow floatcmp nothing here ever compared floats
	return 1
}
`)
	diags, err := Audit(pkg, []*Analyzer{LockCheck, FloatCmp})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, d := range diags {
		if d.Analyzer != "audit" {
			t.Errorf("unexpected non-audit diagnostic: [%s] %s", d.Analyzer, d.Message)
			continue
		}
		stale = append(stale, d.Message)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "stale //lint:allow floatcmp") {
		t.Errorf("want exactly one stale floatcmp directive, got %v", stale)
	}
}

// TestSortFindings pins the module-wide output order: findings are
// sorted by file, line, column, analyzer, then message — independent of
// package load order — so the text and -github outputs are
// byte-stable across runs.
func TestSortFindings(t *testing.T) {
	pos := func(file string, line, col int) token.Position {
		return token.Position{Filename: file, Line: line, Column: col}
	}
	findings := []Finding{
		{Position: pos("b.go", 3, 1), Analyzer: "lockcheck", Message: "m1"},
		{Position: pos("a.go", 9, 2), Analyzer: "simdeterminism", Message: "m2"},
		{Position: pos("a.go", 9, 2), Analyzer: "errlost", Message: "m3"},
		{Position: pos("a.go", 9, 1), Analyzer: "fsyncorder", Message: "m4"},
		{Position: pos("a.go", 2, 5), Analyzer: "floatcmp", Message: "m5"},
		{Position: pos("a.go", 9, 2), Analyzer: "errlost", Message: "m0"},
	}
	sortFindings(findings)
	var got []string
	for _, f := range findings {
		got = append(got, f.Message)
	}
	want := []string{"m5", "m4", "m0", "m3", "m2", "m1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}
