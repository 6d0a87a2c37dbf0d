package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a global lock-acquisition-order graph and reports
// two classes of deadlock risk:
//
//  1. Ordering cycles: an edge A → B is recorded whenever lock B is
//     acquired (directly, or inside a same-package callee per its
//     summary, or per the cross-package baseline table) while A may be
//     held. A cycle in the resulting graph is the classic ABBA
//     deadlock; each strongly connected component is reported once.
//
//  2. Blocking operations under a held lock: channel send/receive/range
//     and select without default, sync.WaitGroup.Wait and time.Sleep
//     are flagged under any tracked lock; file I/O (WriteAt/ReadAt/
//     Sync/...) is flagged only under hot-path locks — the pagestore
//     locks (DurableStore.mu, WAL.mu, FileStore.mu) exist to serialize
//     file I/O, so I/O under them is the documented design (fsyncorder
//     owns their write/sync ordering), while I/O under a bufferpool
//     shard or engine lock stalls every reader behind the disk.
//
// Lock identity is instance-insensitive: every value of a type shares
// one lock class ("shard.mu"), which is what makes the order graph
// global. Held-lock state is a path-sensitive may-analysis over the
// CFG; a deferred Unlock does not release (the lock is held to
// function exit), matching the lock-for-the-body idiom.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock acquisitions must follow one global order (cycles are " +
		"potential deadlocks) and must not span blocking operations: " +
		"channel ops, WaitGroup.Wait, or file I/O under a hot-path lock",
	Run: runLockOrder,
}

// ioBearingLocks are lock classes whose entire purpose is serializing
// file I/O; holding them across WriteAt/Sync is the design, not a
// finding. Everything else is hot-path: I/O under it is reported.
var ioBearingLocks = map[string]bool{
	"DurableStore.mu": true,
	"FileStore.mu":    true,
	"WAL.mu":          true,
}

// lockAcquiredByRecv declares, for calls whose body is outside the
// package under analysis (analysis runs one package at a time), which
// lock class any method of the named receiver type may acquire.
// This over-approximates — most methods of these types do lock their
// receiver's mutex — and is what lets an exec-side path record its
// edge into a pagestore lock.
var lockAcquiredByRecv = map[string]string{
	"FileStore":    "FileStore.mu",
	"WAL":          "WAL.mu",
	"DurableStore": "DurableStore.mu",
	"Injector":     "Injector.mu",
	"Collector":    "Collector.mu",
	"Engine":       "Engine.mu",
}

// lockOrderBaseline declares acquisition edges established inside other
// packages, so a package that builds the reverse edge still closes the
// cycle even though the analysis runs one package at a time. Each row
// mirrors an edge the owning package's own run derives from source.
var lockOrderBaseline = [][2]string{
	{"DurableStore.mu", "WAL.mu"},       // Commit appends to the WAL under mu
	{"DurableStore.mu", "FileStore.mu"}, // Checkpoint writes pages back under mu
}

// ioMethods matches file-I/O calls by method name (receiver-agnostic so
// the golden mocks and the BlockFile seam both match).
var ioMethods = map[string]bool{
	"WriteAt":    true,
	"ReadAt":     true,
	"Truncate":   true,
	"Sync":       true,
	"WriteImage": true,
	"ZeroPage":   true,
	"WriteMeta":  true,
	"ReadPage":   true,
}

// lockID names one lock class: "Type.field" for a mutex field
// (instance-insensitive), "pkg:name" for a package-level mutex,
// "local:name" for a function-local one.
func lockID(pass *Pass, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return ""
		}
		if obj.Parent() == pass.Pkg.Scope() {
			return "pkg:" + e.Name
		}
		return "local:" + e.Name
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				if tn := namedTypeName(sel.Recv()); tn != "" {
					return tn + "." + v.Name()
				}
				return ""
			}
		}
		// Qualified package-level var (pkg.Mu).
		if v, ok := pass.TypesInfo.ObjectOf(e.Sel).(*types.Var); ok && !v.IsField() {
			return "pkg:" + v.Name()
		}
	case *ast.StarExpr:
		return lockID(pass, e.X)
	}
	return ""
}

// namedTypeName returns the bare name of t's named type, through one
// pointer.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// lockSummary is one function's transitive locking behavior.
type lockSummary struct {
	acquires   map[string]bool // lock classes possibly acquired inside
	blocksChan bool            // may block on a channel/WaitGroup/sleep
	blocksIO   bool            // may perform file I/O
}

func (s *lockSummary) equal(o *lockSummary) bool {
	if s.blocksChan != o.blocksChan || s.blocksIO != o.blocksIO || len(s.acquires) != len(o.acquires) {
		return false
	}
	for k := range s.acquires {
		if !o.acquires[k] {
			return false
		}
	}
	return true
}

// lockEdge is one recorded acquisition-order edge with the position
// that witnessed it.
type lockEdge struct {
	from, to string
	pos      token.Pos
	detail   string // human-readable site, e.g. "(*Pool).Get acquires Pool.mu while holding shard.mu"
}

type lockOrderState struct {
	pass      *Pass
	cg        *CallGraph
	summaries map[*FuncInfo]*lockSummary
	// selectOf maps every node inside a select communication clause to
	// its select statement; blocking is reported once per select.
	selectOf   map[ast.Node]*ast.SelectStmt
	hasDefault map[*ast.SelectStmt]bool
	edges      map[[2]string]*lockEdge
	// reported dedupes per-site reports: a node folded again from a
	// later block, or a select with several clauses, reports once.
	reported map[token.Pos]bool
}

func runLockOrder(pass *Pass) error {
	if !inConcurrencyScope(pass.Pkg.Path()) {
		return nil
	}
	cg := BuildCallGraph(pass)
	st := &lockOrderState{
		pass:       pass,
		cg:         cg,
		summaries:  map[*FuncInfo]*lockSummary{},
		selectOf:   map[ast.Node]*ast.SelectStmt{},
		hasDefault: map[*ast.SelectStmt]bool{},
		edges:      map[[2]string]*lockEdge{},
	}
	for _, fi := range cg.Funcs {
		indexSelectComms(fi.Body, st.selectOf, st.hasDefault)
	}

	// Phase 1: transitive summaries, callee-first over the SCC
	// condensation.
	cg.Fixpoint(func(fi *FuncInfo) bool {
		next := st.summarize(fi)
		prev := st.summaries[fi]
		if prev != nil && prev.equal(next) {
			return false
		}
		st.summaries[fi] = next
		return true
	})

	// Phase 2: per-function held-lock dataflow; records order edges and
	// reports blocking ops under held locks.
	for _, fi := range cg.Funcs {
		st.checkFunc(fi)
	}

	// Phase 3: cycle detection over local edges plus the cross-package
	// baseline.
	st.reportCycles()
	return nil
}

// indexSelectComms maps every node inside a select communication clause
// to its select, and records which selects have a default.
func indexSelectComms(body *ast.BlockStmt, selectOf map[ast.Node]*ast.SelectStmt, hasDefault map[*ast.SelectStmt]bool) {
	inspectOwn(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			comm := c.(*ast.CommClause)
			if comm.Comm == nil {
				hasDefault[sel] = true
				continue
			}
			ast.Inspect(comm.Comm, func(m ast.Node) bool {
				if m != nil {
					selectOf[m] = sel
				}
				return true
			})
		}
		return true
	})
}

// directBlocking classifies one node as a blocking operation when it is
// not part of a select clause (selects are reported at clause level).
// Returns a description or "".
func (st *lockOrderState) directBlocking(n ast.Node) string {
	if sel := st.selectOf[n]; sel != nil {
		return "" // handled when the select statement itself is seen
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.RangeStmt:
		if t, ok := st.pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				return "range over channel"
			}
		}
	case *ast.SelectStmt:
		if !st.hasDefault[n] {
			return "select without default"
		}
	case *ast.CallExpr:
		if rt, m, _, ok := syncMethod(st.pass.TypesInfo, n); ok && rt == "WaitGroup" && m == "Wait" {
			return "WaitGroup.Wait"
		}
		if fn := callee(st.pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	return ""
}

// directIO reports whether call is a file-I/O method call, by name.
func (st *lockOrderState) directIO(call *ast.CallExpr) bool {
	fn := callee(st.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return ioMethods[fn.Name()]
}

// summarize computes fi's summary from its direct effects and its
// callees' current summaries.
func (st *lockOrderState) summarize(fi *FuncInfo) *lockSummary {
	sum := &lockSummary{acquires: map[string]bool{}}
	calls := map[*ast.CallExpr]*CallSite{}
	for _, site := range fi.Sites {
		calls[site.Call] = site
	}
	inspectOwn(fi.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // spawned work has its own summary
		}
		if desc := st.directBlocking(n); desc != "" {
			sum.blocksChan = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if rt, m, recv, ok := syncMethod(st.pass.TypesInfo, call); ok {
			if (rt == "Mutex" || rt == "RWMutex") && (m == "Lock" || m == "RLock") {
				if id := lockID(st.pass, recv); id != "" && !strings.HasPrefix(id, "local:") {
					sum.acquires[id] = true
				}
			}
			return true
		}
		if st.directIO(call) {
			sum.blocksIO = true
		}
		site := calls[call]
		if site == nil {
			return true
		}
		if len(site.Targets) > 0 {
			for _, t := range site.Targets {
				if ts := st.summaries[t]; ts != nil {
					for id := range ts.acquires {
						sum.acquires[id] = true
					}
					sum.blocksChan = sum.blocksChan || ts.blocksChan
					sum.blocksIO = sum.blocksIO || ts.blocksIO
				}
			}
		} else if fn := callee(st.pass.TypesInfo, call); fn != nil {
			if id, ok := lockAcquiredByRecv[recvTypeName(fn)]; ok {
				sum.acquires[id] = true
			}
		}
		return true
	})
	return sum
}

// checkFunc runs the held-lock may-analysis over one body, recording
// order edges and reporting blocking ops under held locks.
func (st *lockOrderState) checkFunc(fi *FuncInfo) {
	// Enumerate the lock classes this function acquires directly.
	bits := map[string]int{}
	inspectOwn(fi.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if rt, m, recv, ok := syncMethod(st.pass.TypesInfo, call); ok &&
			(rt == "Mutex" || rt == "RWMutex") && (m == "Lock" || m == "RLock") {
			if id := lockID(st.pass, recv); id != "" {
				if _, seen := bits[id]; !seen {
					bits[id] = len(bits)
				}
			}
		}
		return true
	})

	names := make([]string, len(bits))
	for id, i := range bits {
		names[i] = id
	}
	calls := map[*ast.CallExpr]*CallSite{}
	for _, site := range fi.Sites {
		calls[site.Call] = site
	}

	cfg := BuildCFG(fi.Body)
	apply := func(n ast.Node, held BitSet, report bool) {
		heldIDs := func() []string {
			var out []string
			for id, i := range bits {
				if held.Has(i) {
					out = append(out, id)
				}
			}
			sort.Strings(out)
			return out
		}
		inspectOwn(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.GoStmt:
				return false // runs concurrently, without our locks
			case *ast.DeferStmt:
				// A deferred Unlock releases at exit, not here; a
				// deferred anything-else has no effect on held state
				// mid-body either. Skip the whole statement.
				return false
			case *ast.SelectStmt:
				if report && !st.hasDefault[s] {
					st.reportBlocking(fi, s.Pos(), "select without default", heldIDs())
				}
				return true
			}
			// The CFG splits a select into per-clause blocks, so the
			// communication ops surface here as plain send/recv nodes;
			// report them as their select, once, at the select's pos.
			if sel := st.selectOf[m]; sel != nil {
				if report && !st.hasDefault[sel] {
					st.reportBlocking(fi, sel.Pos(), "select without default", heldIDs())
				}
				return true
			}
			if desc := st.directBlocking(m); desc != "" {
				if _, isSel := m.(*ast.SelectStmt); !isSel && report {
					st.reportBlocking(fi, m.Pos(), desc, heldIDs())
				}
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if rt, meth, recv, ok := syncMethod(st.pass.TypesInfo, call); ok {
				if rt != "Mutex" && rt != "RWMutex" {
					return true
				}
				id := lockID(st.pass, recv)
				if id == "" {
					return true
				}
				switch meth {
				case "Lock", "RLock":
					if report {
						for _, h := range heldIDs() {
							st.addEdge(h, id, call.Pos(), fmt.Sprintf(
								"%s acquires %s while holding %s", fi.Name, id, h))
						}
					}
					if i, ok := bits[id]; ok {
						held.Set(i)
					}
				case "Unlock", "RUnlock":
					if i, ok := bits[id]; ok {
						held.Clear(i)
					}
				}
				return true
			}
			if report && st.directIO(call) {
				st.reportIO(fi, call, heldIDs())
			}
			site := calls[call]
			if site == nil || !report {
				return true
			}
			if len(site.Targets) > 0 {
				for _, t := range site.Targets {
					ts := st.summaries[t]
					if ts == nil {
						continue
					}
					for id := range ts.acquires {
						for _, h := range heldIDs() {
							st.addEdge(h, id, call.Pos(), fmt.Sprintf(
								"%s calls %s (acquires %s) while holding %s", fi.Name, t.Name, id, h))
						}
					}
					if ts.blocksChan {
						st.reportBlocking(fi, call.Pos(),
							"call to "+t.Name+" (may block on a channel or WaitGroup)", heldIDs())
					}
					if ts.blocksIO {
						st.reportIO(fi, call, heldIDs())
					}
				}
			} else if fn := callee(st.pass.TypesInfo, call); fn != nil {
				if id, ok := lockAcquiredByRecv[recvTypeName(fn)]; ok {
					for _, h := range heldIDs() {
						st.addEdge(h, id, call.Pos(), fmt.Sprintf(
							"%s calls (%s).%s (may acquire %s) while holding %s",
							fi.Name, recvTypeName(fn), fn.Name(), id, h))
					}
				}
			}
			return true
		})
	}

	transfer := func(b *Block, in BitSet) BitSet {
		out := in
		for _, n := range b.Nodes {
			apply(n, out, false)
		}
		return out
	}
	ins := cfg.Flow(FlowSpec{Bits: len(bits), Transfer: transfer})

	// Reporting walk from the fixpoint in-states.
	st.reported = map[token.Pos]bool{}
	for i, b := range cfg.Blocks {
		held := ins[i].Clone()
		for _, n := range b.Nodes {
			apply(n, held, true)
		}
	}
}

func (st *lockOrderState) reportBlocking(fi *FuncInfo, pos token.Pos, desc string, held []string) {
	if len(held) == 0 || st.reported[pos] {
		return
	}
	st.reported[pos] = true
	st.pass.Reportf(pos,
		"%s: %s while holding %s: a blocked holder stalls every other acquirer "+
			"(release the lock before blocking, or restructure with a buffered handoff)",
		fi.Name, desc, strings.Join(held, ", "))
}

func (st *lockOrderState) reportIO(fi *FuncInfo, call *ast.CallExpr, held []string) {
	var hot []string
	for _, h := range held {
		if !ioBearingLocks[h] {
			hot = append(hot, h)
		}
	}
	if len(hot) == 0 || st.reported[call.Pos()] {
		return
	}
	st.reported[call.Pos()] = true
	name := "file I/O"
	if fn := callee(st.pass.TypesInfo, call); fn != nil {
		name = fn.Name()
	}
	st.pass.Reportf(call.Pos(),
		"%s: file I/O (%s) while holding hot-path lock %s: disk latency under this "+
			"lock stalls the fast path; move the I/O outside the critical section",
		fi.Name, name, strings.Join(hot, ", "))
}

func (st *lockOrderState) addEdge(from, to string, pos token.Pos, detail string) {
	// Function-local locks share nothing across functions, so a
	// cross-edge through one would conflate unrelated mutexes that
	// happen to share a variable name; only their self-loops (a genuine
	// re-acquisition) enter the graph.
	if from != to && (strings.HasPrefix(from, "local:") || strings.HasPrefix(to, "local:")) {
		return
	}
	k := [2]string{from, to}
	if e, ok := st.edges[k]; ok {
		if pos < e.pos {
			e.pos, e.detail = pos, detail
		}
		return
	}
	st.edges[k] = &lockEdge{from: from, to: to, pos: pos, detail: detail}
}

// reportCycles runs Tarjan over the union of local edges and the
// declared baseline, reporting each non-trivial strongly connected
// component (or self-loop) exactly once, anchored at the earliest
// locally recorded edge in the component.
func (st *lockOrderState) reportCycles() {
	adj := map[string]map[string]bool{}
	add := func(a, b string) {
		if adj[a] == nil {
			adj[a] = map[string]bool{}
		}
		adj[a][b] = true
	}
	for _, e := range st.edges {
		add(e.from, e.to)
	}
	for _, e := range lockOrderBaseline {
		add(e[0], e[1])
	}

	var nodes []string
	seen := map[string]bool{}
	for _, e := range st.edges {
		for _, n := range []string{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	for _, e := range lockOrderBaseline {
		for _, n := range e {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, ok := index[n]; !ok {
			strongconnect(n)
		}
	}

	for _, scc := range sccs {
		selfLoop := len(scc) == 1 && adj[scc[0]][scc[0]]
		if len(scc) < 2 && !selfLoop {
			continue
		}
		// Anchor at the earliest local edge inside the component; a
		// component with no local edge would mean the baseline table
		// itself is cyclic, which edge review forbids.
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var anchor *lockEdge
		var details []string
		var es []*lockEdge
		for _, e := range st.edges {
			if inSCC[e.from] && inSCC[e.to] {
				es = append(es, e)
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i].pos < es[j].pos })
		for _, e := range es {
			if anchor == nil {
				anchor = e
			}
			details = append(details, e.detail)
		}
		if anchor == nil {
			continue
		}
		sort.Strings(scc)
		if selfLoop {
			st.pass.Reportf(anchor.pos,
				"lock-order cycle (potential self-deadlock): %s is reacquired while "+
					"already held (%s); Mutex is not reentrant and a second RLock can "+
					"deadlock behind a waiting writer",
				scc[0], strings.Join(details, "; "))
			continue
		}
		st.pass.Reportf(anchor.pos,
			"lock-order cycle (potential deadlock) among {%s}: %s; acquire these "+
				"locks in one global order on every path",
			strings.Join(scc, ", "), strings.Join(details, "; "))
	}
}
