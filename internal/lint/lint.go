// Package lint is a repo-specific static-analysis suite guarding an
// invariant no test runs into by itself at every site: storage errors
// that are never dropped (errlost). Every other class it once checked
// is caught by the tests that run it — float ties by the identity
// hashes and the insert oracle, unlocked reads and blocking under a
// lock by the -race suites and the chaos tests, determinism by the
// run-twice parity tests, durable-write order by the crash-recovery
// torture — and internal/mutate's table shows each catch.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library only — the build
// environment is offline, so x/tools cannot be vendored. One loader
// (module.go) type-checks packages from source, and one driver runs the
// suite over them: Standalone, behind cmd/simquerylint, over the whole
// module.
//
// # Suppressions
//
// A finding that is intentional is silenced in place with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; a directive without one is itself reported. Suppressions
// are deliberately loud in review — they are the documented escape
// hatch, not a default.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // short lowercase identifier, used in //lint:allow
	Doc  string // one-paragraph description of the invariant enforced
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The analyzers
// enforce production-path invariants; tests legitimately compare floats
// exactly, read guarded fields without the lock and drop errors they do
// not check.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ErrLost,
	}
}

// Package bundles one loaded, type-checked package for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunAnalyzers executes the analyzers over pkg and returns the
// surviving diagnostics, position-sorted, with //lint:allow
// suppressions applied. Malformed directives (missing reason, unknown
// format) are returned as diagnostics of the pseudo-analyzer "lint".
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	kept, _, err := runAnalyzers(pkg, analyzers)
	return kept, err
}

// Audit runs the analyzers and additionally reports every well-formed
// //lint:allow directive that suppressed nothing — a stale suppression
// whose finding has since been fixed (or whose analyzer never fires
// there). Stale directives come back as diagnostics of the
// pseudo-analyzer "audit" so the drivers print and gate on them like
// any other finding. The analyzer set should be All(): auditing against
// a subset would falsely flag directives owned by the missing
// analyzers.
func Audit(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	kept, allows, err := runAnalyzers(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, d := range allows.directives {
		if d.used {
			continue
		}
		if !known[d.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      d.pos,
				Analyzer: "audit",
				Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", d.analyzer),
			})
			continue
		}
		kept = append(kept, Diagnostic{
			Pos:      d.pos,
			Analyzer: "audit",
			Message: fmt.Sprintf("stale //lint:allow %s: no %s finding on this line or the one below; "+
				"delete the directive (the suppressed issue is gone)", d.analyzer, d.analyzer),
		})
	}
	sortDiags(kept)
	return kept, nil
}

func runAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, *allowSet, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	allows, malformed := collectAllows(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.covers(pkg.Fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, malformed...)
	sortDiags(kept)
	return kept, allows, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// allowDirective is one parsed //lint:allow comment; used flips when it
// suppresses a finding, feeding the audit.
type allowDirective struct {
	pos      token.Pos
	analyzer string
	used     bool
}

// allowSet indexes //lint:allow directives by file and line.
type allowSet struct {
	byLine     map[string]map[int][]*allowDirective // filename -> line -> directives
	directives []*allowDirective
}

func (s *allowSet) covers(pos token.Position, analyzer string) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	// A directive suppresses findings on its own line (trailing
	// comment) and on the line below it (comment above the statement).
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.analyzer == analyzer {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

const allowPrefix = "//lint:allow"

func collectAllows(fset *token.FileSet, files []*ast.File) (*allowSet, []Diagnostic) {
	set := &allowSet{byLine: map[string]map[int][]*allowDirective{}}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lint",
						Message:  "malformed //lint:allow directive: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				p := fset.Position(c.Pos())
				if set.byLine[p.Filename] == nil {
					set.byLine[p.Filename] = map[int][]*allowDirective{}
				}
				d := &allowDirective{pos: c.Pos(), analyzer: fields[0]}
				set.byLine[p.Filename][p.Line] = append(set.byLine[p.Filename][p.Line], d)
				set.directives = append(set.directives, d)
			}
		}
	}
	return set, malformed
}

// callee resolves the *types.Func a call invokes, or nil for builtins,
// type conversions and indirect calls through function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvTypeName returns the bare receiver type name of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
