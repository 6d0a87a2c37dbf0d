package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer under the path-sensitive
// analyzer (errlost, its one user): a basic-block
// CFG built from a function body's syntax, standing in for
// golang.org/x/tools/go/cfg (unavailable offline). The builder handles
// if/for/range/switch/type-switch/select, labeled and unlabeled
// break/continue, goto, return, and calls that never return (panic,
// os.Exit); defer and go statements stay in their block as ordinary
// nodes and analyzers decide their semantics.
//
// Function literals are NOT inlined: each *ast.FuncLit body is its own
// function with its own CFG — analyzers walk them separately via
// funcBodies.

// Block is one basic block: a straight-line run of statements and
// expressions with branching only at the end.
type Block struct {
	Index int
	// Nodes holds the block's statements in execution order. Branch
	// conditions (if/for/switch tags, range operands) are appended as
	// bare ast.Expr nodes so transfer functions see every evaluation.
	Nodes []ast.Node
	Succs []int // indices of the successor blocks
	// Label names the block's role for CFG tests and debug dumps
	// ("entry", "if.then", "for.head", "select.case", ...).
	Label string
}

// CFG is one function body's control-flow graph. Blocks[Entry] is the
// entry; every return statement (and falling off the end) flows to
// Blocks[Exit]; panics and other no-return calls flow to Blocks[Panic].
// The Exit and Panic blocks are always empty.
type CFG struct {
	Blocks []*Block
	Entry  int
	Exit   int
	Panic  int
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelInfo{},
	}
	entry := b.newBlock("entry")
	exit := b.newBlock("exit")
	panicB := b.newBlock("panic")
	b.cfg.Entry, b.cfg.Exit, b.cfg.Panic = entry.Index, exit.Index, panicB.Index
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.jump(b.cur, exit)
	return b.cfg
}

// labelInfo tracks one label's targets: the goto/entry block and, when
// the labeled statement is a loop/switch/select, its break and continue
// targets.
type labelInfo struct {
	block *Block // target of goto L and entry of the labeled statement
	brk   *Block // target of break L (nil until the labeled stmt is built)
	cont  *Block // target of continue L (loops only)
}

// loopFrame is one enclosing breakable construct: loops push both
// targets, switch/select push brk only.
type loopFrame struct {
	brk  *Block
	cont *Block // nil for switch/select
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	loops  []loopFrame
	labels map[string]*labelInfo
	// pendingLabel is set between a LabeledStmt and the construct it
	// labels, so the construct registers its break/continue targets.
	pendingLabel *labelInfo
}

func (b *cfgBuilder) newBlock(label string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Label: label}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump adds an edge.
func (b *cfgBuilder) jump(from, to *Block) {
	from.Succs = append(from.Succs, to.Index)
}

// dead replaces the current block with a fresh unreachable one, after a
// terminator (return, panic, goto, break, continue). Statically
// unreachable code lands there with no predecessors.
func (b *cfgBuilder) dead() {
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.jump(b.cur, b.cfg.Blocks[b.cfg.Exit])
		b.dead()

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.jump(b.cur, li.block)
		b.cur = li.block
		b.pendingLabel = li
		b.stmt(s.Stmt)
		b.pendingLabel = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, "typeswitch")

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.DeferStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isNoReturnCall(call) {
			b.jump(b.cur, b.cfg.Blocks[b.cfg.Panic])
			b.dead()
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: plain
		// block members.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.cur.Nodes = append(b.cur.Nodes, s)
	var target *Block
	switch s.Tok {
	case token.GOTO:
		target = b.label(s.Label.Name).block
	case token.BREAK:
		if s.Label != nil {
			target = b.label(s.Label.Name).brk
		} else if len(b.loops) > 0 {
			target = b.loops[len(b.loops)-1].brk
		}
	case token.CONTINUE:
		if s.Label != nil {
			target = b.label(s.Label.Name).cont
		} else {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].cont != nil {
					target = b.loops[i].cont
					break
				}
			}
		}
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt; nothing to do here.
		return
	}
	if target != nil {
		b.jump(b.cur, target)
	}
	b.dead()
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	b.cur.Nodes = append(b.cur.Nodes, s.Cond)
	cond := b.cur
	join := b.newBlock("if.join")

	then := b.newBlock("if.then")
	b.jump(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.jump(b.cur, join)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.jump(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(b.cur, join)
	} else {
		b.jump(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	join := b.newBlock("for.join")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jump(b.cur, head)
	b.jump(head, body)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		b.jump(head, join)
	} // else `for {}`: join reachable only via break
	b.pushLoop(join, post)
	b.cur = body
	b.stmt(s.Body)
	b.jump(b.cur, post)
	if s.Post != nil {
		post.Nodes = append(post.Nodes, s.Post)
		b.jump(post, head)
	}
	b.popLoop()
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	// The range statement itself (operand + per-iteration assignment)
	// lives in the head; head branches to the body (another element) or
	// the join (exhausted).
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	join := b.newBlock("range.join")
	b.jump(b.cur, head)
	head.Nodes = append(head.Nodes, s)
	b.jump(head, body)
	b.jump(head, join)
	b.pushLoop(join, head)
	b.cur = body
	b.stmt(s.Body)
	b.jump(b.cur, head)
	b.popLoop()
	b.cur = join
}

// switchStmt builds expression and type switches: every case body is a
// block between the head and the join; fallthrough chains into the next
// clause's body. A switch with no default can skip every clause.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, guard ast.Stmt, body *ast.BlockStmt, label string) {
	if init != nil {
		b.cur.Nodes = append(b.cur.Nodes, init)
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	if guard != nil {
		b.cur.Nodes = append(b.cur.Nodes, guard)
	}
	head := b.cur
	join := b.newBlock(label + ".join")
	b.pushSwitch(join)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock(label + ".case")
		if c.List == nil {
			hasDefault = true
		}
		b.jump(head, blocks[i])
	}
	if !hasDefault {
		b.jump(head, join)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		for _, e := range c.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		falls := false
		for _, s := range c.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				continue
			}
			b.stmt(s)
		}
		if falls && i+1 < len(blocks) {
			b.jump(b.cur, blocks[i+1])
		} else {
			b.jump(b.cur, join)
		}
	}
	b.popLoop()
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	join := b.newBlock("select.join")
	b.pushSwitch(join)
	for _, c := range s.Body.List {
		comm := c.(*ast.CommClause)
		blk := b.newBlock("select.case")
		b.jump(head, blk)
		b.cur = blk
		if comm.Comm != nil {
			b.stmt(comm.Comm)
		}
		b.stmtList(comm.Body)
		b.jump(b.cur, join)
	}
	b.popLoop()
	b.cur = join
	// A select with no cases blocks forever; its join has one pred per
	// case, so an empty select's join is unreachable — accurate enough.
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.loops = append(b.loops, loopFrame{brk: brk, cont: cont})
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel.cont = cont
		b.pendingLabel = nil
	}
}

func (b *cfgBuilder) pushSwitch(brk *Block) {
	b.loops = append(b.loops, loopFrame{brk: brk})
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel = nil
	}
}

func (b *cfgBuilder) popLoop() { b.loops = b.loops[:len(b.loops)-1] }

// isNoReturnCall recognizes calls that never return to the caller:
// panic and os.Exit (syntactic — shadowing either name defeats it,
// which no sane code does).
func isNoReturnCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}

// declName names a function body for diagnostics: the declaration's
// name, or the literal inside it.
func declName(decl *ast.FuncDecl, lit *ast.FuncLit) string {
	if lit != nil {
		return "function literal in " + decl.Name.Name
	}
	return decl.Name.Name
}

// funcBodies invokes fn for every function body in the file: named
// declarations and every function literal, each treated as its own
// function (a literal's CFG is not inlined into its enclosing one).
func funcBodies(f *ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn(fd, nil, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(fd, lit, lit.Body)
			}
			return true
		})
	}
}
