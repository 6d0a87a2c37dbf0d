package lint

import (
	"go/ast"
	"go/token"
)

// FloatCmp forbids == and != between floating-point values in the
// determinism-critical packages. Distances flow through squared-space
// arithmetic whose rounding differs between algebraically equal
// formulations, so exact equality silently diverges; comparisons
// belong in the approved geom helpers (Point.Equal, Rect.Equal — any
// method named Equal) or behind an epsilon.
//
// Exemptions: comparisons with a compile-time constant (the zero-value
// config idiom `if c.Rate == 0`), and the bodies of functions named
// Equal, which are the approved exact-comparison helpers. Deliberate
// exact tie-breaks (canonical result ordering) are suppressed in place
// with //lint:allow floatcmp so the intent is documented at the site.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "forbid ==/!= on float values outside approved Equal helpers in " +
		"determinism-critical packages; exact float equality on computed " +
		"distances is one refactor away from silent divergence",
	Run: runFloatCmp,
}

// determinismPackages are the packages whose results the parity tests
// assert bit-identical across the immediate driver, the event-driven
// simulator and the concurrent engine; pagestore decodes the pages the
// distance kernels read.
var determinismPackages = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/simarray":  true,
	"repro/internal/query":     true,
	"repro/internal/rtree":     true,
	"repro/internal/decluster": true,
	"repro/internal/geom":      true,
	"repro/internal/pagestore": true,
}

func runFloatCmp(pass *Pass) error {
	// The golden-test package is loaded under the analyzer's name.
	if !determinismPackages[pass.Pkg.Path()] && pass.Pkg.Path() != pass.Analyzer.Name {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "Equal" {
				continue // approved exact-comparison helper
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				checkFloatCmp(pass, be)
				return true
			})
		}
	}
	return nil
}

func checkFloatCmp(pass *Pass, be *ast.BinaryExpr) {
	xt, yt := pass.TypesInfo.Types[be.X], pass.TypesInfo.Types[be.Y]
	if xt.Type == nil || yt.Type == nil {
		return
	}
	if !isFloat(xt.Type) && !isFloat(yt.Type) {
		return
	}
	if xt.Value != nil || yt.Value != nil {
		return // comparison against a constant: the zero-value/sentinel idiom
	}
	pass.Reportf(be.OpPos,
		"exact %s comparison of floating-point values; use an approved Equal "+
			"helper or an epsilon, or //lint:allow floatcmp if the exact "+
			"tie-break is deliberate", be.Op)
}
