package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFuncCFG parses src (a file fragment containing one function F)
// and builds its CFG.
func buildFuncCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nimport \"os\"\n\nvar _ = os.Exit\n\nfunc F() " + body
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "F" {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatal("no func F")
	return nil
}

// reaches reports whether `to` is reachable from `from` along CFG edges.
func reaches(c *CFG, from, to int) bool {
	seen := make([]bool, len(c.Blocks))
	var walk func(int) bool
	walk = func(i int) bool {
		if i == to {
			return true
		}
		if seen[i] {
			return false
		}
		seen[i] = true
		for _, to := range c.Blocks[i].Succs {
			if walk(to) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// blockByLabel returns the first block with the given label.
func blockByLabel(t *testing.T, c *CFG, label string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		if b.Label == label {
			return b
		}
	}
	t.Fatalf("no block labeled %q in\n%s", label, dump(c))
	return nil
}

func TestCFGStraightLine(t *testing.T) {
	c := buildFuncCFG(t, `{
	x := 1
	_ = x
	return
}`)
	if !reaches(c, c.Entry, c.Exit) {
		t.Fatalf("exit unreachable:\n%s", dump(c))
	}
	entry := c.Blocks[c.Entry]
	if len(entry.Nodes) != 3 { // assign, assign, return
		t.Errorf("entry has %d nodes, want 3:\n%s", len(entry.Nodes), dump(c))
	}
}

func TestCFGIfBranches(t *testing.T) {
	c := buildFuncCFG(t, `{
	x := 1
	if x > 0 {
		x = 2
	} else {
		x = 3
	}
	_ = x
}`)
	entry := c.Blocks[c.Entry]
	then, els := blockByLabel(t, c, "if.then"), blockByLabel(t, c, "if.else")
	if len(entry.Succs) != 2 || entry.Succs[0] != then.Index || entry.Succs[1] != els.Index {
		t.Errorf("if: entry successors %v, want then %d and else %d:\n%s", entry.Succs, then.Index, els.Index, dump(c))
	}
}

func TestCFGDeferRecorded(t *testing.T) {
	c := buildFuncCFG(t, `{
	defer println("a")
	if true {
		defer println("b")
	}
}`)
	// The conditional defer sits in the then-block, not the entry.
	then := blockByLabel(t, c, "if.then")
	found := false
	for _, n := range then.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("conditional defer not in if.then block:\n%s", dump(c))
	}
}

func TestCFGPanicEdge(t *testing.T) {
	c := buildFuncCFG(t, `{
	x := 1
	if x > 0 {
		panic("boom")
	}
	_ = x
}`)
	then := blockByLabel(t, c, "if.then")
	toPanic := false
	for _, to := range then.Succs {
		if to == c.Panic {
			toPanic = true
		}
	}
	if !toPanic {
		t.Errorf("panic call does not edge to the panic block:\n%s", dump(c))
	}
	// The join after the if must not be reachable from the then-block:
	// panic never falls through.
	join := blockByLabel(t, c, "if.join")
	if reaches(c, then.Index, join.Index) {
		t.Errorf("flow continues past panic:\n%s", dump(c))
	}
	// os.Exit behaves the same.
	c = buildFuncCFG(t, `{
	os.Exit(2)
	println("dead")
}`)
	if reaches(c, c.Entry, c.Exit) {
		t.Errorf("flow continues past os.Exit to the normal exit:\n%s", dump(c))
	}
}

func TestCFGSelectEdges(t *testing.T) {
	c := buildFuncCFG(t, `{
	ch := make(chan int)
	done := make(chan bool)
	select {
	case v := <-ch:
		_ = v
	case <-done:
		return
	default:
	}
	println("after")
}`)
	cases := 0
	for _, b := range c.Blocks {
		if b.Label == "select.case" {
			cases++
		}
	}
	if cases != 3 {
		t.Fatalf("got %d select.case blocks, want 3:\n%s", cases, dump(c))
	}
	// The return-clause must reach the exit; the join must still be
	// reachable (via the other clauses).
	join := blockByLabel(t, c, "select.join")
	if !reaches(c, c.Entry, join.Index) {
		t.Errorf("select join unreachable:\n%s", dump(c))
	}
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable through the return clause:\n%s", dump(c))
	}
}

func TestCFGGotoEdges(t *testing.T) {
	c := buildFuncCFG(t, `{
	i := 0
retry:
	i++
	if i < 3 {
		goto retry
	}
	_ = i
}`)
	lbl := blockByLabel(t, c, "label.retry")
	then := blockByLabel(t, c, "if.then")
	back := false
	for _, to := range then.Succs {
		if to == lbl.Index {
			back = true
		}
	}
	if !back {
		t.Errorf("goto does not edge back to its label block:\n%s", dump(c))
	}
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
}

func TestCFGForAndBreakContinue(t *testing.T) {
	c := buildFuncCFG(t, `{
outer:
	for i := 0; i < 10; i++ {
		for {
			if i == 3 {
				continue outer
			}
			if i == 5 {
				break outer
			}
			break
		}
	}
}`)
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
	// continue outer must edge to the outer post block, break outer to
	// the outer join.
	post := blockByLabel(t, c, "for.post")
	join := blockByLabel(t, c, "for.join")
	contOK, brkOK := false, false
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			br, ok := n.(*ast.BranchStmt)
			if !ok || br.Label == nil {
				continue
			}
			for _, to := range b.Succs {
				if br.Tok == token.CONTINUE && to == post.Index {
					contOK = true
				}
				if br.Tok == token.BREAK && to == join.Index {
					brkOK = true
				}
			}
		}
	}
	if !contOK || !brkOK {
		t.Errorf("labeled continue->post=%v break->join=%v:\n%s", contOK, brkOK, dump(c))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := buildFuncCFG(t, `{
	switch x := 1; x {
	case 1:
		fallthrough
	case 2:
		println("two")
	default:
		return
	}
}`)
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
	// Three case blocks; the first must edge into the second.
	var caseBlocks []*Block
	for _, b := range c.Blocks {
		if b.Label == "switch.case" {
			caseBlocks = append(caseBlocks, b)
		}
	}
	if len(caseBlocks) != 3 {
		t.Fatalf("got %d case blocks, want 3:\n%s", len(caseBlocks), dump(c))
	}
	falls := false
	for _, to := range caseBlocks[0].Succs {
		if to == caseBlocks[1].Index {
			falls = true
		}
	}
	if !falls {
		t.Errorf("fallthrough edge missing:\n%s", dump(c))
	}
}

func TestCFGRangeLoop(t *testing.T) {
	c := buildFuncCFG(t, `{
	for i := range 10 {
		if i == 3 {
			return
		}
	}
	println("done")
}`)
	head := blockByLabel(t, c, "range.head")
	if len(head.Succs) != 2 {
		t.Fatalf("range head has %d successors, want 2 (body, join):\n%s", len(head.Succs), dump(c))
	}
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
}

// TestFlowMayMeet pins the dataflow engine's meet: a fact genned on
// only one arm of an if survives the join.
func TestFlowMayMeet(t *testing.T) {
	c := buildFuncCFG(t, `{
	x := 1
	if x > 0 {
		x = 2 // gen
	}
	_ = x
}`)
	ins := c.Flow(FlowSpec{Bits: 1, Transfer: genOnAssign})
	if !ins[c.Exit].Has(0) {
		t.Errorf("fact genned on one arm lost at the join:\n%s", dump(c))
	}
	if ins[c.Entry].Has(0) {
		t.Errorf("fact holds at entry:\n%s", dump(c))
	}
}

// genOnAssign gens fact 0 at every plain assignment to a named
// variable.
func genOnAssign(b *Block, in BitSet) BitSet {
	for _, n := range b.Nodes {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			continue
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			in.Set(0)
		}
	}
	return in
}

// TestFlowLoopFixpoint verifies convergence with a loop: a fact genned
// in the body reaches the exit and flows back to the loop head.
func TestFlowLoopFixpoint(t *testing.T) {
	c := buildFuncCFG(t, `{
	n := 3
	for i := 0; i < n; i++ {
		n = 4 // gen
	}
	_ = n
}`)
	ins := c.Flow(FlowSpec{Bits: 1, Transfer: genOnAssign})
	if !ins[c.Exit].Has(0) {
		t.Errorf("fact lost through loop:\n%s", dump(c))
	}
	if !ins[blockByLabel(t, c, "for.head").Index].Has(0) {
		t.Errorf("fact genned in the body did not flow back to the head:\n%s", dump(c))
	}
}

// TestCFGEntryExit pins the two fixed blocks every CFG has.
func TestCFGEntryExit(t *testing.T) {
	c := buildFuncCFG(t, `{ return }`)
	if c.Blocks[c.Entry].Label != "entry" || c.Blocks[c.Exit].Label != "exit" {
		t.Errorf("entry/exit blocks mislabeled:\n%s", dump(c))
	}
	if !reaches(c, c.Entry, c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
}

// dump renders the CFG for test failures: one line per block with its
// label and successor indices.
func dump(c *CFG) string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "%d[%s] -> %v\n", blk.Index, blk.Label, blk.Succs)
	}
	return sb.String()
}
