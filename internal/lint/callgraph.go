package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural layer under lockorder: a per-package
// static call graph with CHA-style (class-hierarchy) resolution,
// standing in for golang.org/x/tools/go/callgraph (unavailable
// offline). Build-tag awareness comes from the loader — LoadModule
// matches files through go/build — so the graph only ever sees
// files that compile into the package.
//
// Resolution policy, from precise to conservative:
//
//   - A direct call to a package-local function or concrete method
//     resolves to exactly that body.
//   - A call through an interface method resolves, CHA style, to every
//     package-local method of that name whose receiver type (or its
//     pointer) implements the interface — an over-approximation that
//     never misses a package-local target but may include types the
//     value can't dynamically be.
//   - An immediately invoked function literal resolves to the literal.
//   - A call through a plain function value resolves to nothing and is
//     marked Dynamic; summary-based analyzers treat it as "unknown
//     effects" per their own documented policy.
//
// Calls that cross the package boundary have no body here (analysis
// runs one package at a time); analyzers that need cross-package
// facts declare them in small tables (see lockorder's baseline edges).

// FuncInfo is one function body known to the call graph: a named
// declaration or a function literal (each literal is its own node —
// literals are never inlined into their enclosing function).
type FuncInfo struct {
	Obj  *types.Func   // declared object; nil for function literals
	Decl *ast.FuncDecl // enclosing declaration (set for literals too)
	Lit  *ast.FuncLit  // non-nil when this node is a literal
	Body *ast.BlockStmt
	Name string // diagnostic name, e.g. "(*Engine).worker" or "New$func1"
	// Sites lists every call expression in the body (source order,
	// nested literal bodies excluded) with its resolved targets. The
	// function call of a `go` statement is deliberately absent — the
	// spawned body does not run with the caller's locks.
	Sites []*CallSite

	// Tarjan bookkeeping (see SCCs).
	index, lowlink int
	onStack        bool
}

// CallSite is one resolved call expression.
type CallSite struct {
	Call *ast.CallExpr
	// Targets are the package-local bodies the call may reach; empty
	// for stdlib and cross-package callees.
	Targets []*FuncInfo
	// Dynamic marks interface-method and function-value dispatch:
	// Targets is then a CHA over-approximation (or empty when nothing
	// in the package implements the callee).
	Dynamic bool
}

// CallGraph is the per-package static call graph.
type CallGraph struct {
	Funcs []*FuncInfo
	byObj map[*types.Func]*FuncInfo
	byLit map[*ast.FuncLit]*FuncInfo
}

// BuildCallGraph constructs the call graph of the pass's package,
// excluding test files (lockorder checks production protocols;
// chaos/crash tests take locks under rules of their own).
func BuildCallGraph(pass *Pass) *CallGraph {
	cg := &CallGraph{
		byObj: map[*types.Func]*FuncInfo{},
		byLit: map[*ast.FuncLit]*FuncInfo{},
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		funcBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			fi := &FuncInfo{Decl: decl, Lit: lit, Body: body, Name: declName(decl, lit)}
			if lit == nil {
				if obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
					fi.Obj = obj
					cg.byObj[obj] = fi
				}
			} else {
				cg.byLit[lit] = fi
			}
			cg.Funcs = append(cg.Funcs, fi)
		})
	}
	// Resolve call sites only after every body is registered, so
	// forward references and mutual recursion resolve.
	for _, fi := range cg.Funcs {
		goCalls := map[*ast.CallExpr]bool{}
		inspectOwn(fi.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				goCalls[g.Call] = true
			}
			if call, ok := n.(*ast.CallExpr); ok && !goCalls[call] {
				fi.Sites = append(fi.Sites, cg.resolveCall(pass, call))
			}
			return true
		})
	}
	return cg
}

// inspectOwn walks a body's own nodes, skipping nested function
// literal bodies (each literal is its own call-graph node).
func inspectOwn(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

func (cg *CallGraph) resolveCall(pass *Pass, call *ast.CallExpr) *CallSite {
	site := &CallSite{Call: call}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if fi := cg.byLit[lit]; fi != nil {
			site.Targets = []*FuncInfo{fi}
		}
		return site
	}
	fn := callee(pass.TypesInfo, call)
	if fn == nil {
		// Builtin, conversion, or a call through a function value.
		if isFuncValueCall(pass.TypesInfo, call) {
			site.Dynamic = true
		}
		return site
	}
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		site.Dynamic = true
		site.Targets = cg.implementers(fn)
		return site
	}
	if fi := cg.byObj[fn]; fi != nil {
		site.Targets = []*FuncInfo{fi}
	}
	return site
}

// isFuncValueCall reports whether call invokes a plain function value
// (variable, field, call result) rather than a named function, method,
// builtin or conversion.
func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

// implementers returns, CHA style, every package-local method named
// like the interface method m whose receiver type's pointer implements
// m's interface. Using the pointer type checks against the larger
// method set, so value-receiver and pointer-receiver implementations
// are both found — conservative by construction.
func (cg *CallGraph) implementers(m *types.Func) []*FuncInfo {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncInfo
	for _, fi := range cg.Funcs {
		if fi.Obj == nil || fi.Obj.Name() != m.Name() {
			continue
		}
		msig, ok := fi.Obj.Type().(*types.Signature)
		if !ok || msig.Recv() == nil {
			continue
		}
		t := msig.Recv().Type()
		if _, isPtr := t.(*types.Pointer); !isPtr {
			t = types.NewPointer(t)
		}
		if types.Implements(t, iface) {
			out = append(out, fi)
		}
	}
	return out
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up order: every component appears after the components it
// calls into, so one pass over the result (iterating each component's
// members to a local fixpoint) computes transitive summaries —
// Tarjan's algorithm emits components in exactly this order.
func (cg *CallGraph) SCCs() [][]*FuncInfo {
	for _, fi := range cg.Funcs {
		fi.index = -1
		fi.onStack = false
	}
	var (
		sccs  [][]*FuncInfo
		stack []*FuncInfo
		next  int
	)
	var strongconnect func(v *FuncInfo)
	strongconnect = func(v *FuncInfo) {
		v.index, v.lowlink = next, next
		next++
		stack = append(stack, v)
		v.onStack = true
		for _, site := range v.Sites {
			for _, w := range site.Targets {
				if w.index < 0 {
					strongconnect(w)
					v.lowlink = min(v.lowlink, w.lowlink)
				} else if w.onStack {
					v.lowlink = min(v.lowlink, w.index)
				}
			}
		}
		if v.lowlink == v.index {
			var scc []*FuncInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, fi := range cg.Funcs {
		if fi.index < 0 {
			strongconnect(fi)
		}
	}
	return sccs
}

// Fixpoint drives a bottom-up summary computation: update is called per
// function and returns whether that function's summary changed; within
// a strongly connected component (mutual recursion) members re-run
// until stable, and components are visited callee-first so each is
// finished before its callers read it.
func (cg *CallGraph) Fixpoint(update func(fi *FuncInfo) bool) {
	for _, scc := range cg.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, fi := range scc {
				if update(fi) {
					changed = true
				}
			}
		}
	}
}

// concurrencyScopePackages are the packages whose lock order
// lockorder guards: the parallel engine and everything its worker
// goroutines touch.
var concurrencyScopePackages = map[string]bool{
	"repro/internal/exec":       true,
	"repro/internal/bufferpool": true,
	"repro/internal/pagestore":  true,
	"repro/internal/obs":        true,
	"repro/internal/fault":      true,
}

// inConcurrencyScope gates lockorder to the concurrency-bearing
// packages, plus any package whose import path starts with
// "lockorder" — the golden testdata and regression fixtures.
func inConcurrencyScope(path string) bool {
	return concurrencyScopePackages[path] || strings.HasPrefix(path, "lockorder")
}

// syncMethod reports whether call is a method call on a sync.Mutex /
// RWMutex / WaitGroup value, returning the method name and the
// receiver expression.
func syncMethod(info *types.Info, call *ast.CallExpr) (recvType, method string, recv ast.Expr, ok bool) {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	return recvTypeName(fn), fn.Name(), sel.X, true
}
