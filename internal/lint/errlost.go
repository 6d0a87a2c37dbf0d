package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrLost verifies that errors from the storage and fault-injection
// layers — internal/pagestore, internal/fault — are consumed: checked,
// returned, or explicitly discarded with an annotated
// `//lint:allow errlost <reason>`. These are exactly the errors the
// chaos harness injects; a retry loop that drops one turns an injected
// fault into silent corruption.
//
// Three rules:
//
//  1. statement-dropped: a tracked call used as a bare statement (or
//     behind go/defer) discards its error result.
//  2. blank-dropped: `_` in the error slot of a tracked call's results.
//  3. dead store (path-sensitive): an error variable assigned from a
//     tracked call must be read on every subsequent path before being
//     overwritten or falling out of the function.
//
// Test files are skipped: tests legitimately drop cleanup errors.
var ErrLost = &Analyzer{
	Name: "errlost",
	Doc: "errors from pagestore/fault/WAL I/O must be checked, returned, " +
		"or discarded with //lint:allow errlost <reason>; a dropped error " +
		"turns an injected fault into silent corruption",
	Run: runErrLost,
}

// errLostCalleePkgs are the packages whose error results are tracked.
var errLostCalleePkgs = map[string]bool{
	"repro/internal/pagestore": true,
	"repro/internal/fault":     true,
}

// isTrackedErrCall reports whether call's callee lives in a tracked
// package (or, under golden tests, in the testdata package itself) and
// its last result is an error.
func isTrackedErrCall(pass *Pass, call *ast.CallExpr) bool {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkgPath := fn.Pkg().Path()
	if !errLostCalleePkgs[pkgPath] && !strings.HasPrefix(pkgPath, pass.Analyzer.Name) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return isErrorType(last)
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func runErrLost(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		funcBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			checkErrLost(pass, declName(decl, lit), body)
		})
	}
	return nil
}

// errSite is one assignment of a tracked error into a variable; the
// dead-store rule owns one may-bit per site ("assigned, not yet read").
type errSite struct {
	assign *ast.AssignStmt
	call   *ast.CallExpr
	obj    types.Object
	name   string
}

func checkErrLost(pass *Pass, fname string, body *ast.BlockStmt) {
	var sites []errSite

	// Rules 1 and 2 are statement-local; collect rule-3 sites on the
	// same walk. Nested literals are their own functions.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isTrackedErrCall(pass, call) {
				reportDropped(pass, fname, call, "")
			}
		case *ast.DeferStmt:
			if isTrackedErrCall(pass, n.Call) {
				reportDropped(pass, fname, n.Call, "deferred ")
			}
		case *ast.GoStmt:
			if isTrackedErrCall(pass, n.Call) {
				reportDropped(pass, fname, n.Call, "go-routine ")
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !isTrackedErrCall(pass, call) {
				return true
			}
			errIdx := len(n.Lhs) - 1
			id, ok := n.Lhs[errIdx].(*ast.Ident)
			if !ok {
				return true // stored through a selector/index: consumed
			}
			if id.Name == "_" {
				pass.Reportf(id.Pos(),
					"%s discards the error from %s with _: check it, return it, or "+
						"annotate the discard with //lint:allow errlost <reason>",
					fname, callLabel(pass, call))
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isErrorType(obj.Type()) {
				sites = append(sites, errSite{assign: n, call: call, obj: obj, name: id.Name})
			}
		}
		return true
	})

	if len(sites) == 0 {
		return
	}
	checkErrDeadStores(pass, fname, body, sites)
}

func reportDropped(pass *Pass, fname string, call *ast.CallExpr, kind string) {
	pass.Reportf(call.Pos(),
		"%s drops the error result of %s%s: check it, return it, or annotate "+
			"the discard with //lint:allow errlost <reason>",
		fname, kind, callLabel(pass, call))
}

// callLabel renders "pkg-or-recv.Method" for diagnostics.
func callLabel(pass *Pass, call *ast.CallExpr) string {
	fn := callee(pass.TypesInfo, call)
	if fn == nil {
		return "call"
	}
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// checkErrDeadStores runs the rule-3 may-analysis: bit i = "site i's
// error is assigned and not yet read". Gen at the assignment (after
// clearing the variable's other sites — and reporting an overwrite if
// one is still live), kill at any read of the variable. A bare return
// in a function with named results reads them all.
func checkErrDeadStores(pass *Pass, fname string, body *ast.BlockStmt, sites []errSite) {
	cfg := BuildCFG(body)
	nb := len(sites)

	// apply folds one node's effects; onOverwrite/onReturn are only
	// armed during the report walk.
	apply := func(n ast.Node, state BitSet, onOverwrite func(site int, prev int)) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				// A closure capturing the variable may read it later:
				// conservative kill for any site whose obj is used inside.
				ast.Inspect(m.Body, func(k ast.Node) bool {
					if id, ok := k.(*ast.Ident); ok {
						for i, s := range sites {
							if pass.TypesInfo.ObjectOf(id) == s.obj {
								state.Clear(i)
							}
						}
					}
					return true
				})
				return false
			case *ast.AssignStmt:
				// Is this one of the tracked gen sites?
				for i, s := range sites {
					if s.assign != m {
						continue
					}
					// RHS call arguments may read other error vars:
					// handled by the generic ident walk below on the RHS
					// subtree, which Inspect reaches before Lhs? It does
					// not — walk RHS explicitly first.
					for _, rhs := range m.Rhs {
						killReads(pass, rhs, sites, state)
					}
					for j, o := range sites {
						if o.obj == s.obj && state.Has(j) {
							if onOverwrite != nil {
								onOverwrite(i, j)
							}
							state.Clear(j)
						}
					}
					state.Set(i)
					return false // children handled
				}
				return true
			case *ast.Ident:
				obj := pass.TypesInfo.ObjectOf(m)
				for i, s := range sites {
					if s.obj == obj && m != s.assign.Lhs[len(s.assign.Lhs)-1] {
						state.Clear(i)
					}
				}
			case *ast.ReturnStmt:
				if len(m.Results) == 0 {
					// Named results: everything is returned.
					for i := range sites {
						state.Clear(i)
					}
				}
			}
			return true
		})
	}

	transfer := func(b *Block, in BitSet) BitSet {
		out := in
		for _, n := range b.Nodes {
			apply(n, out, nil)
		}
		return out
	}
	ins := cfg.Flow(FlowSpec{Bits: nb, Transfer: transfer})

	// Report overwrites from the fixpoint states.
	reportedOverwrite := map[int]bool{}
	for i, b := range cfg.Blocks {
		state := ins[i].Clone()
		for _, n := range b.Nodes {
			apply(n, state, func(site, prev int) {
				if !reportedOverwrite[site] {
					reportedOverwrite[site] = true
					pass.Reportf(sites[site].assign.Pos(),
						"%s overwrites %q while a previous error from %s is still "+
							"unchecked on some path",
						fname, sites[site].name, callLabel(pass, sites[prev].call))
				}
			})
		}
	}

	// Report sites whose error can fall out of the function unread.
	atExit := ins[cfg.Exit]
	for i, s := range sites {
		if atExit.Has(i) {
			pass.Reportf(s.assign.Pos(),
				"%s assigns the error from %s to %q but a path returns without "+
					"reading it: check it, return it, or annotate with "+
					"//lint:allow errlost <reason>",
				fname, callLabel(pass, s.call), s.name)
		}
	}
}

// killReads clears the bit of any site whose variable is read in expr.
func killReads(pass *Pass, expr ast.Node, sites []errSite, state BitSet) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := pass.TypesInfo.ObjectOf(id)
			for i, s := range sites {
				if s.obj == obj {
					state.Clear(i)
				}
			}
		}
		return true
	})
}
