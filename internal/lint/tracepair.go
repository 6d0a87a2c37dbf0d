package lint

import (
	"go/ast"
	"strings"
)

// TracePair enforces the trace-event pairing protocol of package obs on
// the two drivers that own terminal events: a function that closes
// fetch stages (emits StageDone) must close them on every path to a
// normal return — error exits and cancellation exits included — unless
// the observer is provably nil on that path. This is the bug class
// fixed by hand in PR 4, where exec's fetchBatch returned early on a
// failed batch and left the stage open.
//
// The event pairs are declared in traceEventPairs; pairs whose terminal
// is emitted by a different function than the start (FetchIssue /
// FetchDone across the algorithm–driver seam) or whose lifetime spans
// calls (QueryStart / QueryEnd across Step invocations) are exempt from
// the function-local rule and documented as such in the table.
//
// Two path-sensitive rules, both per function (literals included):
//
//  1. terminal-on-all-paths: if the function emits a function-local
//     terminal event anywhere, every path from entry to a return must
//     either emit it or prove the observer nil (the false edge of
//     `obs != nil`). Panic exits are exempt.
//  2. start-post-dominated: if the function emits both sides of a
//     function-local pair, no path may reach a return with the start
//     emitted but the terminal not.
var TracePair = &Analyzer{
	Name: "tracepair",
	Doc: "trace events that open a stage must be closed by their terminal " +
		"pair on every return path (including error and cancellation exits); " +
		"a driver that emits StageDone anywhere must emit it on all paths " +
		"unless the observer is provably nil",
	Run: runTracePair,
}

// tracePair is one start/terminal event pair of the obs schema.
type tracePair struct {
	start    string
	terminal string
	// funcLocal marks pairs whose open and close are emitted by the
	// same function, making the protocol statically checkable there.
	// FetchIssue/FetchDone pairing is per-request and data-dependent
	// (failed fetches legally omit FetchDone); QueryStart/QueryEnd
	// spans Step calls of the execution state machine. Both are checked
	// dynamically by the trace parity tests instead.
	funcLocal bool
}

var traceEventPairs = []tracePair{
	{start: "StageIssue", terminal: "StageDone", funcLocal: true},
	{start: "StageStart", terminal: "StageDone", funcLocal: true}, // alias kept for protocol docs/testdata
	{start: "FetchIssue", terminal: "FetchDone", funcLocal: false},
	{start: "QueryStart", terminal: "QueryEnd", funcLocal: false},
}

// tracePairPackages are the drivers that emit terminal events.
// (simarray's deliver() closes stages from an event-driven callback —
// per-arrival, not per-function — so the function-local rule cannot
// apply there; its pairing is covered by the trace parity tests.)
var tracePairPackages = map[string]bool{
	"repro/internal/exec":  true,
	"repro/internal/query": true,
}

func inTracePairScope(path, analyzer string) bool {
	return tracePairPackages[path] || strings.HasPrefix(path, analyzer)
}

func runTracePair(pass *Pass) error {
	if !inTracePairScope(pass.Pkg.Path(), pass.Analyzer.Name) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		funcBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			checkTracePairs(pass, declName(decl, lit), body)
		})
	}
	return nil
}

func declName(decl *ast.FuncDecl, lit *ast.FuncLit) string {
	if lit != nil {
		return "function literal in " + decl.Name.Name
	}
	return decl.Name.Name
}

// observeEvent matches a call of the form <root>.Observe(Event{Type:
// <EventName>, ...}) — the emission shape used across the repo — and
// returns the observer's root path and the event name.
func observeEvent(call *ast.CallExpr) (root, event string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Observe" || len(call.Args) != 1 {
		return "", "", false
	}
	root = exprString(sel.X)
	if root == "" {
		return "", "", false
	}
	comp, isComp := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
	if !isComp {
		return "", "", false
	}
	for _, el := range comp.Elts {
		kv, isKV := el.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		key, isIdent := kv.Key.(*ast.Ident)
		if !isIdent || key.Name != "Type" {
			continue
		}
		switch v := ast.Unparen(kv.Value).(type) {
		case *ast.Ident:
			return root, v.Name, true
		case *ast.SelectorExpr:
			return root, v.Sel.Name, true
		}
	}
	return "", "", false
}

// nilCheckedRoot classifies an edge condition of the form `X != nil` /
// `X == nil`: it returns X's root path and whether THIS edge is the one
// on which X is known nil.
func nilCheckedRoot(e Edge) (root string, knownNil bool, ok bool) {
	bin, isBin := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !isBin {
		return "", false, false
	}
	var x ast.Expr
	switch {
	case isNilIdent(bin.Y):
		x = bin.X
	case isNilIdent(bin.X):
		x = bin.Y
	default:
		return "", false, false
	}
	root = exprString(x)
	if root == "" {
		return "", false, false
	}
	switch bin.Op.String() {
	case "!=":
		return root, e.Negated, true // false edge of X != nil ⇒ X is nil
	case "==":
		return root, !e.Negated, true // true edge of X == nil ⇒ X is nil
	}
	return "", false, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminalEmissions finds every function-local-terminal Observe call in
// the body, keyed by observer root, plus the set of start events per
// root for rule 2.
type traceEmit struct {
	call  *ast.CallExpr
	root  string
	event string
}

// traceObligation is one terminal-event debt a function owes: having
// emitted terminal anywhere on root, it must do so on every path.
type traceObligation struct {
	root     string
	terminal string
	starts   map[string]bool
	emitPos  *ast.CallExpr
}

func collectTraceEmits(body *ast.BlockStmt) []traceEmit {
	var out []traceEmit
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != nil {
			// Literals are separate functions with their own CFGs.
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if root, ev, ok := observeEvent(call); ok {
				out = append(out, traceEmit{call: call, root: root, event: ev})
			}
		}
		return true
	})
	return out
}

func isFuncLocalTerminal(event string) bool {
	for _, p := range traceEventPairs {
		if p.funcLocal && p.terminal == event {
			return true
		}
	}
	return false
}

// startsForTerminal returns the start events whose function-local
// terminal is event.
func startsForTerminal(event string) map[string]bool {
	starts := map[string]bool{}
	for _, p := range traceEventPairs {
		if p.funcLocal && p.terminal == event {
			starts[p.start] = true
		}
	}
	return starts
}

func checkTracePairs(pass *Pass, fname string, body *ast.BlockStmt) {
	emits := collectTraceEmits(body)
	// Group the obligation by observer root: the function owes a
	// terminal on root r only if it emits one somewhere.
	var obls []traceObligation
	seen := map[string]bool{}
	for _, em := range emits {
		if !isFuncLocalTerminal(em.event) {
			continue
		}
		key := em.root + "\x00" + em.event
		if seen[key] {
			continue
		}
		seen[key] = true
		obls = append(obls, traceObligation{
			root: em.root, terminal: em.event,
			starts: startsForTerminal(em.event), emitPos: em.call,
		})
	}
	if len(obls) == 0 {
		return
	}

	cfg := BuildCFG(body)
	// Two passes over the same CFG, one bit per obligation in each:
	//   must-pass bit i = discharged: terminal emitted, or observer
	//                     proved nil (must hold at every return)
	//   may-pass  bit i = openStart: a start emitted, terminal not yet
	//                     (must NOT be possible at any return)
	nb := len(obls)

	transferMust := func(b *Block, in BitSet) []BitSet {
		out := in
		for _, n := range b.Nodes {
			applyTraceNode(n, obls, func(i int) { out.Set(i) }, nil)
		}
		outs := make([]BitSet, len(b.Succs))
		for k, e := range b.Succs {
			eo := out
			if e.Cond != nil {
				if root, knownNil, ok := nilCheckedRoot(e); ok && knownNil {
					for i, o := range obls {
						if o.root == root {
							eo = eo.Clone()
							eo.Set(i)
						}
					}
				}
			}
			outs[k] = eo
		}
		return outs
	}
	mustIns := cfg.Flow(FlowSpec{Bits: nb, Must: true, Transfer: transferMust})

	// Rule 1: at every reachable return, each obligation is discharged.
	exitIn := mustIns[cfg.Exit]
	for i, o := range obls {
		if !exitIn.Has(i) {
			pass.Reportf(o.emitPos.Pos(),
				"%s emits %s but can return without it: every path to a return must "+
					"emit the terminal trace event (or prove %s nil); error and "+
					"cancellation exits included",
				fname, o.terminal, o.root)
		}
	}

	// Rule 2: start emitted but terminal not, live at a return (may
	// analysis: gen at start emission, kill at terminal emission).
	transferMay := func(b *Block, in BitSet) []BitSet {
		out := in
		for _, n := range b.Nodes {
			applyTraceNode(n, obls, func(i int) { out.Clear(i) }, func(i int) { out.Set(i) })
		}
		// Branch refinement, mirroring the must pass: on an edge where
		// the observer is known nil, no start can be open on it — the
		// path that emitted the start had the observer non-nil.
		outs := make([]BitSet, len(b.Succs))
		for k, e := range b.Succs {
			eo := out
			if e.Cond != nil {
				if root, knownNil, ok := nilCheckedRoot(e); ok && knownNil {
					for i, o := range obls {
						if o.root == root {
							eo = eo.Clone()
							eo.Clear(i)
						}
					}
				}
			}
			outs[k] = eo
		}
		return outs
	}
	mayIns := cfg.Flow(FlowSpec{Bits: nb, Must: false, Transfer: transferMay})
	openAtExit := mayIns[cfg.Exit]
	for i, o := range obls {
		if len(o.starts) > 0 && openAtExit.Has(i) {
			// Only meaningful when the function actually emits a start
			// of this pair; find it for the report position.
			for _, em := range emits {
				if em.root == o.root && o.starts[em.event] {
					pass.Reportf(em.call.Pos(),
						"%s emits %s here but a path to a return misses its terminal %s; "+
							"the start event must be post-dominated by its pair",
						fname, em.event, o.terminal)
					break
				}
			}
		}
	}
}

// applyTraceNode applies one CFG node's trace effects for every
// obligation: onTerminal fires for terminal emissions on the
// obligation's root, onStart for start-class emissions of its pair.
// Emissions inside a defer count at the registration point — a
// registered defer runs at every subsequent exit. ast.Inspect descends
// into the node but not into nested function literals.
func applyTraceNode(n ast.Node, obls []traceObligation, onTerminal, onStart func(int)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		root, ev, ok := observeEvent(call)
		if !ok {
			return true
		}
		for i := range obls {
			if obls[i].root != root {
				continue
			}
			if ev == obls[i].terminal && onTerminal != nil {
				onTerminal(i)
			} else if obls[i].starts[ev] && onStart != nil {
				onStart(i)
			}
		}
		return true
	})
}
