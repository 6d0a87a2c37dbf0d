package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismPackages are the packages whose behavior must be a pure
// function of their inputs and seeds: the immediate driver, the
// event-driven simulator and the concurrent engine all execute these
// and their results are asserted bit-identical by the parity tests.
var determinismPackages = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/simarray":  true,
	"repro/internal/query":     true,
	"repro/internal/rtree":     true,
	"repro/internal/decluster": true,
	"repro/internal/geom":      true,
	// pagestore is on the decode path that materializes rtree.FlatNode
	// views for the batch distance kernels: codec round-trips and shadow
	// verification feed the same bit-parity contract as geom itself.
	"repro/internal/pagestore": true,
}

// inDeterminismScope also admits the analyzer's own golden-test
// packages (loaded with their testdata directory name as import path).
func inDeterminismScope(path, analyzer string) bool {
	return determinismPackages[path] || strings.HasPrefix(path, analyzer)
}

// wallClockFuncs are the time package functions that read the wall
// clock. time.Date etc. are pure and stay allowed.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRandFuncs are the package-level math/rand constructors that do
// NOT draw from the unseeded global source. Everything else at package
// level (Intn, Float64, Shuffle, Perm, ...) uses the global generator,
// whose sequence is shared process-wide and order-dependent.
var allowedRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// SimDeterminism forbids nondeterminism sources in the simulation and
// query-path packages: wall-clock reads (time.Now/Since/Until),
// global-source math/rand functions, and map iteration that feeds
// ordered output (appends to outer slices or channel sends).
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock reads, unseeded global math/rand use, and ordered " +
		"output built from map iteration in simulation/query-path packages; " +
		"these paths must be a pure function of inputs and seeds so that " +
		"driver, simulator and engine stay bit-identical",
	Run: runSimDeterminism,
}

func runSimDeterminism(pass *Pass) error {
	if !inDeterminismScope(pass.Pkg.Path(), pass.Analyzer.Name) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkDeterminismCall(pass, call)
			}
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if rng, ok := n.(*ast.RangeStmt); ok {
						checkMapRange(pass, fd, rng)
					}
					return true
				})
			}
		}
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in a determinism-critical package; "+
					"simulation and query paths must depend only on inputs and seeds",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global random source; use a seeded "+
					"*rand.Rand (rand.New(rand.NewSource(seed))) so runs are reproducible",
				fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange flags `for k := range m` loops whose body builds
// ordered output: appending to a slice declared outside the loop or
// sending on a channel. Map iteration order is randomized per run, so
// such output silently diverges between executions. The canonical fix
// — collect the keys, then sort them — is recognized and left alone:
// an append target that is later passed to a sort/slices call is
// order-normalized.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	reported := false
	report := func(pos ast.Node, what string) {
		if reported {
			return
		}
		reported = true
		pass.Reportf(rng.Pos(),
			"range over map %s ordered output (%s in the loop body); map iteration "+
				"order is nondeterministic — collect and sort the keys first",
			"feeds", what)
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
				return true
			}
			if declaredOutside(pass, n.Args[0], rng) && !sortedInFunc(pass, fd, n.Args[0]) {
				report(n, "append to a slice declared outside the loop")
			}
		}
		return !reported
	})
}

// declaredOutside reports whether the root object of expr was declared
// outside the range statement (an outer local, a field, a global).
func declaredOutside(pass *Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		// Fields and elements necessarily outlive the loop.
		return true
	}
	return false
}

// sortedInFunc reports whether target (an identifier or field path) is
// passed to a sort or slices function anywhere in fd — the
// collect-then-sort pattern that makes map-range output deterministic.
func sortedInFunc(pass *Pass, fd *ast.FuncDecl, target ast.Expr) bool {
	key := exprString(target)
	if key == "" {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !sorted
		}
		fn := callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprString(arg) == key {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
