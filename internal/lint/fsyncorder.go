package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FsyncOrder verifies the crash-consistency ordering discipline of
// internal/pagestore: every durable write must be followed by the
// matching Sync before any publish point — the WAL epoch publish
// (assignment to the `cur` field), the record-table write
// (tableFiles.write), or a WAL reset — on every path. The protocol is declared as an ordered
// op table (fsyncOps) so new durable operations extend it in one place.
//
// The analysis is a may-analysis over the CFG: a "possibly unsynced
// write outstanding" fact is genned by write-class ops, killed by
// sync-class ops, and checked at publish-class ops. Calls to
// same-package functions whose own exit may leave unsynced writes gen
// the fact too (a one-level summary computed to fixpoint), so a Commit
// that delegates its appends to a helper is still checked end to end.
var FsyncOrder = &Analyzer{
	Name: "fsyncorder",
	Doc: "durable writes (WAL append, page image, block write) must be " +
		"fsynced before any epoch publish, record-table write, or WAL reset " +
		"on every path",
	Run: runFsyncOrder,
}

// fsyncOpClass classifies one method of the durability protocol.
type fsyncOpClass int

const (
	fsyncWrite   fsyncOpClass = iota // dirties the store
	fsyncSync                        // makes all prior writes durable
	fsyncPublish                     // point of no return: must be clean
)

// fsyncOp is one row of the declared protocol table. Methods are
// matched by receiver type name and method name so the golden testdata
// (which may only import the stdlib) can mirror the protocol with local
// mock types.
type fsyncOp struct {
	recv   string // receiver type name ("" = any)
	method string
	class  fsyncOpClass
	// alsoWrites marks publish ops that themselves dirty the store
	// (tableFiles.write leaves the table it wrote unsynced).
	alsoWrites bool
}

var fsyncOps = []fsyncOp{
	// Write class: anything that mutates durable state.
	{recv: "WAL", method: "Append", class: fsyncWrite},
	{recv: "FileStore", method: "WriteImage", class: fsyncWrite},
	{recv: "FileStore", method: "ZeroPage", class: fsyncWrite},
	{recv: "", method: "WriteAt", class: fsyncWrite}, // BlockFile seam and mocks
	{recv: "", method: "Truncate", class: fsyncWrite},
	// Sync class: flushes every outstanding write on its store. The
	// analysis treats any sync as discharging all writes — the repo's
	// stores share one underlying device and the protocol orders whole
	// phases, not per-file flushes.
	{recv: "WAL", method: "Sync", class: fsyncSync},
	{recv: "FileStore", method: "Sync", class: fsyncSync},
	{recv: "", method: "Sync", class: fsyncSync},
	// Publish class: the crash-atomicity hinge points.
	{recv: "WAL", method: "Reset", class: fsyncPublish},
	{recv: "tableFiles", method: "write", class: fsyncPublish, alsoWrites: true},
}

// fsyncPublishField: an assignment to a field with this name is the
// epoch publish (DurableStore.cur flips the visible epoch).
const fsyncPublishField = "cur"

var fsyncOrderPackages = map[string]bool{
	"repro/internal/pagestore": true,
}

func inFsyncOrderScope(path, analyzer string) bool {
	return fsyncOrderPackages[path] || strings.HasPrefix(path, analyzer)
}

// lookupFsyncOp classifies a call against the table, preferring
// receiver-specific rows over wildcard rows.
func lookupFsyncOp(info *types.Info, call *ast.CallExpr) (fsyncOp, bool) {
	fn := callee(info, call)
	if fn == nil {
		return fsyncOp{}, false
	}
	recv := recvTypeName(fn)
	if recv == "" {
		return fsyncOp{}, false // plain functions are covered by summaries
	}
	var wild *fsyncOp
	for i := range fsyncOps {
		op := &fsyncOps[i]
		if op.method != fn.Name() {
			continue
		}
		if op.recv == recv {
			return *op, true
		}
		if op.recv == "" && wild == nil {
			wild = op
		}
	}
	if wild != nil {
		return *wild, true
	}
	return fsyncOp{}, false
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

// isEpochPublish reports whether stmt assigns to a field named
// fsyncPublishField (e.g. `s.cur = next`).
func isEpochPublish(n ast.Node) (ast.Node, bool) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return nil, false
	}
	for _, lhs := range as.Lhs {
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == fsyncPublishField {
			return as, true
		}
	}
	return nil, false
}

func runFsyncOrder(pass *Pass) error {
	if !inFsyncOrderScope(pass.Pkg.Path(), pass.Analyzer.Name) {
		return nil
	}

	// Phase 1: function summaries — may this function's normal exit
	// leave an unsynced write outstanding (assuming clean entry)?
	// Iterated to fixpoint because helpers may call each other.
	dirtyExit := map[*types.Func]bool{}
	type fnBody struct {
		obj  *types.Func
		body *ast.BlockStmt
	}
	var fns []fnBody
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnBody{obj, fd.Body})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			d := fsyncDirtyAtExit(pass, fn.body, dirtyExit)
			if d != dirtyExit[fn.obj] {
				dirtyExit[fn.obj] = d
				changed = true
			}
		}
	}

	// Phase 2: report. Every function body (literals included) is
	// checked at its publish points.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		funcBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			checkFsyncOrder(pass, declName(decl, lit), body, dirtyExit)
		})
	}
	return nil
}

// fsyncApplyNode folds one CFG node's protocol effects into the dirty
// bit, invoking onPublish (may be nil) at each publish point with the
// dirty state just before it. Nested function literals are their own
// functions and are skipped.
func fsyncApplyNode(pass *Pass, n ast.Node, dirty bool, summaries map[*types.Func]bool, onPublish func(n ast.Node, label string, dirty bool)) bool {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if as, ok := isEpochPublish(m); ok {
			if onPublish != nil {
				onPublish(as, "epoch publish ("+fsyncPublishField+" flip)", dirty)
			}
			return true
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := lookupFsyncOp(pass.TypesInfo, call); ok {
			switch op.class {
			case fsyncWrite:
				dirty = true
			case fsyncSync:
				dirty = false
			case fsyncPublish:
				if onPublish != nil {
					onPublish(call, op.method, dirty)
				}
				if op.alsoWrites {
					dirty = true
				}
			}
			return true
		}
		// A call to a same-package function that may exit dirty
		// dirties the caller too.
		if fn := callee(pass.TypesInfo, call); fn != nil && summaries[fn] {
			dirty = true
		}
		return true
	})
	return dirty
}

// fsyncDirtyAtExit runs the may-analysis and reports whether the dirty
// bit can reach the normal exit.
func fsyncDirtyAtExit(pass *Pass, body *ast.BlockStmt, summaries map[*types.Func]bool) bool {
	cfg := BuildCFG(body)
	transfer := func(b *Block, in BitSet) BitSet {
		dirty := in.Has(0)
		for _, n := range b.Nodes {
			dirty = fsyncApplyNode(pass, n, dirty, summaries, nil)
		}
		out := NewBitSet(1)
		if dirty {
			out.Set(0)
		}
		return out
	}
	ins := cfg.Flow(FlowSpec{Bits: 1, Transfer: transfer})
	return ins[cfg.Exit].Has(0)
}

// checkFsyncOrder reports publish points reachable with a possibly
// unsynced write outstanding.
func checkFsyncOrder(pass *Pass, fname string, body *ast.BlockStmt, summaries map[*types.Func]bool) {
	cfg := BuildCFG(body)
	transfer := func(b *Block, in BitSet) BitSet {
		dirty := in.Has(0)
		for _, n := range b.Nodes {
			dirty = fsyncApplyNode(pass, n, dirty, summaries, nil)
		}
		out := NewBitSet(1)
		if dirty {
			out.Set(0)
		}
		return out
	}
	ins := cfg.Flow(FlowSpec{Bits: 1, Transfer: transfer})

	// Walk each block again from its fixpoint in-state, this time with
	// the publish callback armed; dedupe so a publish inside a loop
	// reports once.
	reported := map[ast.Node]bool{}
	for i, b := range cfg.Blocks {
		dirty := ins[i].Has(0)
		for _, n := range b.Nodes {
			dirty = fsyncApplyNode(pass, n, dirty, summaries, func(at ast.Node, label string, d bool) {
				if d && !reported[at] {
					reported[at] = true
					pass.Reportf(at.Pos(),
						"%s reaches %s with a possibly unsynced durable write outstanding: "+
							"the protocol requires Sync before any publish point on every path",
						fname, label)
				}
			})
		}
	}
}
