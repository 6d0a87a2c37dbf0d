package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden runs each analyzer over its testdata package and matches
// the diagnostics against `// want "regexp"` comments, analysistest
// style: every want must be hit by a diagnostic on its line, and every
// diagnostic must be expected by a want.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			pkg, err := loadDir(dir, a.Name)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			diags, err := RunAnalyzers(pkg, []*Analyzer{a})
			if err != nil {
				t.Fatalf("running %s: %v", a.Name, err)
			}
			checkWants(t, pkg, diags)
		})
	}
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	total := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					p := pkg.Fset.Position(c.Pos())
					k := wantKey{p.Filename, p.Line}
					wants[k] = append(wants[k], re)
					total++
				}
			}
		}
	}
	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		k := wantKey{p.Filename, p.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	if len(matched) != total {
		for k, res := range wants {
			for _, re := range res {
				if !matched[re] {
					t.Errorf("missing diagnostic at %s:%d matching %q", k.file, k.line, re)
				}
			}
		}
	}
}

// TestSuppressionRequiresReason verifies a //lint:allow directive
// without a reason is itself reported and does not suppress.
func TestSuppressionRequiresReason(t *testing.T) {
	pkg := parseOnly(t, "p.go", `package p

import "sync"

type T struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (t *T) Snapshot() int {
	//lint:allow lockcheck
	return t.n
}
`)
	diags, err := RunAnalyzers(pkg, []*Analyzer{LockCheck})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			sawMalformed = strings.Contains(d.Message, "malformed")
		case "lockcheck":
			sawFinding = true
		}
	}
	if !sawMalformed {
		t.Errorf("reason-less //lint:allow not reported as malformed; got %v", diags)
	}
	if !sawFinding {
		t.Errorf("reason-less //lint:allow suppressed the finding; got %v", diags)
	}
}

// TestSuppressionSameAndPreviousLine pins the two placements a
// directive may take: trailing on the flagged line or alone on the
// line above.
func TestSuppressionSameAndPreviousLine(t *testing.T) {
	pkg := parseOnly(t, "p.go", `package p

import "sync"

type T struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (t *T) Snapshot() int {
	return t.n //lint:allow lockcheck the caller holds t.mu
}

func (t *T) Stats() int {
	//lint:allow lockcheck second helper, same contract
	return t.n
}
`)
	diags, err := RunAnalyzers(pkg, []*Analyzer{LockCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("expected full suppression, got %v", diags)
	}
}

// TestSelfCheck runs the whole suite over a real dependency-free repo
// package (geom is both a determinism-scope package and the home of the
// approved Equal helpers) and requires it to be clean — the same gate
// `make analyze` enforces over the whole module.
func TestSelfCheck(t *testing.T) {
	pkg, err := loadDir(filepath.Join("..", "geom"), "repro/internal/geom")
	if err != nil {
		t.Fatalf("loading internal/geom: %v", err)
	}
	diags, err := RunAnalyzers(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("internal/geom: %s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// loadDir loads the package in dir, with its in-package test files, as
// LoadModule would were dir the root of a module named importPath.
func loadDir(dir, importPath string) (*Package, error) {
	return newModuleLoader(dir, importPath).loadDir(dir, importPath, true)
}

// parseOnly type-checks an inline single-file package for framework
// tests.
func parseOnly(t *testing.T, name, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(dir, "p")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}
