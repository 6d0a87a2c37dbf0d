package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// LockCheck enforces two rules about mutexes, each within one function.
//
// Documented protection: a struct field whose doc or line comment says
// "guarded by <mu>" may only be read or written inside a function that
// visibly acquires <mu> on the same receiver path (x.mu.Lock() or
// x.mu.RLock()). This is the bug class once fixed by hand, where
// bufferpool residency accounting was mutated off-lock by a cancelled
// query. The check is syntactic: it does not prove the lock is held at
// the access, it proves the function at least participates in the
// locking discipline. Helpers that rely on a caller-held lock document
// that with //lint:allow lockcheck.
//
// No blocking under a lock: a held-lock may-analysis over the CFG
// reports a channel send, receive or range, a select without default,
// WaitGroup.Wait, time.Sleep, or file I/O outside the store locks
// (ioBearingLocks), reached on some path while the function holds a
// sync or lockrank mutex. A deferred Unlock releases at exit, so the
// lock is held to the end of the body. Blocking inside a helper called
// under the lock is not seen; lock order itself is checked at run time
// by the lockrank build tag.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "accesses to struct fields documented as \"guarded by <mu>\" must " +
		"occur in functions that acquire <mu> on the same receiver, and a " +
		"function must not block on a channel, WaitGroup, sleep or " +
		"hot-path file I/O while it holds a lock",
	Run: runLockCheck,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardedField records one annotated field and the mutex field name
// that protects it.
type guardedField struct {
	structName string
	mutex      string
}

func runLockCheck(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		funcBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			if lit == nil && len(guarded) > 0 {
				checkLockedAccesses(pass, decl, guarded)
			}
			checkBlocking(pass, declName(decl, lit), body)
		})
	}
	return nil
}

// collectGuardedFields finds "guarded by <mu>" field annotations and
// resolves them to type objects. A named mutex that is not a field of
// the same struct is reported as a broken annotation.
func collectGuardedFields(pass *Pass) map[*types.Var]guardedField {
	guarded := map[*types.Var]guardedField{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := map[string]bool{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mutex := guardAnnotation(fld)
				if mutex == "" {
					continue
				}
				if !fieldNames[mutex] {
					pass.Reportf(fld.Pos(),
						"field is annotated \"guarded by %s\" but %s has no field %s",
						mutex, ts.Name.Name, mutex)
					continue
				}
				for _, name := range fld.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[obj] = guardedField{structName: ts.Name.Name, mutex: mutex}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, or returns "".
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkLockedAccesses verifies every guarded-field access in fd against
// the set of "<root>.<mu>" paths the function locks anywhere in its
// body (including inside closures — the granularity is the outermost
// declared function).
func checkLockedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]guardedField) {
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if path := exprString(sel.X); path != "" {
			locked[path] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fieldObj, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		// Map instantiated-generic field objects back to the generic
		// declaration collectGuardedFields saw.
		fieldObj = fieldObj.Origin()
		g, ok := guarded[fieldObj]
		if !ok {
			return true
		}
		root := exprString(sel.X)
		if root != "" && locked[root+"."+g.mutex] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"access to %s.%s (guarded by %s) in a function that never acquires "+
				"%s.%s; lock it, or //lint:allow lockcheck with the reason the "+
				"caller holds the lock",
			g.structName, fieldObj.Name(), g.mutex, root, g.mutex)
		return true
	})
}

// ioBearingLocks are the store locks whose purpose is serializing file
// I/O: holding one across WriteAt or Sync is the design, and fsyncorder
// owns their write/sync order. I/O under any other lock stalls every
// acquirer behind the disk.
var ioBearingLocks = map[string]bool{
	"DurableStore.mu": true,
	"WAL.mu":          true,
}

// ioMethods matches file-I/O calls by method name, whatever the
// receiver, so the golden mocks and the BlockFile seam both match.
var ioMethods = map[string]bool{
	"WriteAt":    true,
	"ReadAt":     true,
	"Truncate":   true,
	"Sync":       true,
	"WriteImage": true,
	"ZeroPage":   true,
	"ReadPage":   true,
}

// lockCall reports whether call locks or unlocks a sync or lockrank
// Mutex/RWMutex, returning the method and the lock's class: "Type.field"
// for a mutex field, the expression as written otherwise.
func lockCall(pass *Pass, call *ast.CallExpr) (method, class string) {
	fn := callee(pass.TypesInfo, call)
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fn == nil || fn.Pkg() == nil ||
		(fn.Pkg().Path() != "sync" && fn.Pkg().Name() != "lockrank") {
		return "", ""
	}
	if rt := recvTypeName(fn); rt != "Mutex" && rt != "RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if s := pass.TypesInfo.Selections[x]; s != nil {
			owner := types.TypeString(s.Recv(), func(*types.Package) string { return "" })
			return fn.Name(), strings.TrimPrefix(owner, "*") + "." + x.Sel.Name
		}
	}
	return fn.Name(), exprString(sel.X)
}

// checkBlocking runs the held-lock may-analysis over one body. Each
// function literal is its own body: a goroutine or callback does not run
// under its creator's locks.
func checkBlocking(pass *Pass, name string, body *ast.BlockStmt) {
	var classes []string // bit i: classes[i] may be held
	// A select's communications block only when it has no default; they
	// are reported once, at the select. commOf maps each communication
	// to its select, or to nil when the select has a default.
	commOf := map[ast.Node]*ast.SelectStmt{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, class := lockCall(pass, n); class != "" && !slices.Contains(classes, class) {
				classes = append(classes, class)
			}
		case *ast.SelectStmt:
			sel := n
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					sel = nil
				}
			}
			for _, c := range n.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					commOf[comm] = sel
				}
			}
		}
		return true
	})
	if len(classes) == 0 {
		return
	}

	reported := map[token.Pos]bool{}
	apply := func(n ast.Node, held BitSet, report bool) {
		blocked := func(pos token.Pos, what string, io bool) {
			var names []string
			for i, c := range classes {
				if held.Has(i) && !(io && ioBearingLocks[c]) {
					names = append(names, c)
				}
			}
			if !report || len(names) == 0 || reported[pos] {
				return
			}
			reported[pos] = true
			pass.Reportf(pos, "%s: %s while holding %s: every other acquirer waits "+
				"behind it; release the lock first", name, what, strings.Join(names, ", "))
		}
		var visit func(ast.Node) bool
		visit = func(m ast.Node) bool {
			if sel, ok := commOf[m]; ok {
				if sel != nil {
					blocked(sel.Pos(), "select without default", false)
				}
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.RangeStmt:
				// The CFG evaluates a range statement's operand in its
				// head; the body has blocks of its own.
				if _, ok := pass.TypesInfo.TypeOf(m.X).Underlying().(*types.Chan); ok {
					blocked(m.Pos(), "range over channel", false)
				}
				ast.Inspect(m.X, visit)
				return false
			case *ast.SendStmt:
				blocked(m.Pos(), "channel send", false)
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					blocked(m.Pos(), "channel receive", false)
				}
			case *ast.CallExpr:
				if method, class := lockCall(pass, m); class != "" {
					i := slices.Index(classes, class)
					if method == "Lock" || method == "RLock" {
						held.Set(i)
					} else {
						held.Clear(i)
					}
					return true
				}
				fn := callee(pass.TypesInfo, m)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch {
				case fn.Pkg().Path() == "sync" && recvTypeName(fn) == "WaitGroup" && fn.Name() == "Wait":
					blocked(m.Pos(), "WaitGroup.Wait", false)
				case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
					blocked(m.Pos(), "time.Sleep", false)
				case fn.Type().(*types.Signature).Recv() != nil && ioMethods[fn.Name()]:
					blocked(m.Pos(), "file I/O ("+fn.Name()+")", true)
				}
			}
			return true
		}
		ast.Inspect(n, visit)
	}

	cfg := BuildCFG(body)
	ins := cfg.Flow(FlowSpec{Bits: len(classes), Transfer: func(b *Block, in BitSet) BitSet {
		for _, n := range b.Nodes {
			apply(n, in, false)
		}
		return in
	}})
	for i, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			apply(n, ins[i], true)
		}
	}
}
