package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// parseAs type-checks an inline single-file package under the given
// import path, so path-scoped analyzers (inConcurrencyScope) see the
// fixture as in scope.
func parseAs(t *testing.T, importPath, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// testPass wraps a loaded package in a Pass for direct framework calls.
func testPass(pkg *Package) *Pass {
	var diags []Diagnostic
	return &Pass{
		Analyzer:  &Analyzer{Name: "test"},
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		diags:     &diags,
	}
}

// funcByName finds the call-graph node for a declared function (methods
// included; declName drops the receiver, so names must be unique in the
// fixture).
func funcByName(t *testing.T, cg *CallGraph, name string) *FuncInfo {
	t.Helper()
	var found *FuncInfo
	for _, fi := range cg.Funcs {
		if fi.Lit == nil && fi.Name == name {
			if found != nil {
				t.Fatalf("ambiguous function name %q", name)
			}
			found = fi
		}
	}
	if found == nil {
		t.Fatalf("function %q not in call graph", name)
	}
	return found
}

// TestCallGraphSCCSummaries drives Fixpoint over a package with a
// recursive cycle and checks that a transitive "may send on a channel"
// summary propagates callee-first: through a plain call chain, around a
// mutual-recursion SCC, and not into functions with no path to a send.
func TestCallGraphSCCSummaries(t *testing.T) {
	pkg := parseAs(t, "p", `package p

func leaf(ch chan int) { ch <- 1 }

func mid(ch chan int) { leaf(ch) }

func recA(ch chan int, n int) {
	if n > 0 {
		recB(ch, n-1)
	}
}

func recB(ch chan int, n int) {
	recA(ch, n)
}

func pure(x int) int { return x + 1 }

func callsPure() int { return pure(2) }
`)
	pass := testPass(pkg)
	cg := BuildCallGraph(pass)

	// recB sends nothing itself: only the SCC-internal fixpoint gives it
	// the fact via recA... which itself only has it via recB. Seed the
	// cycle through leaf: the summary is "calls leaf, transitively".
	// leaf is the only direct sender, so "sends" means "reaches leaf".
	sends := map[*FuncInfo]bool{}
	cg.Fixpoint(func(fi *FuncInfo) bool {
		next := fi.Name == "leaf"
		for _, site := range fi.Sites {
			for _, tgt := range site.Targets {
				if sends[tgt] {
					next = true
				}
			}
		}
		if sends[fi] == next {
			return false
		}
		sends[fi] = next
		return true
	})
	if !sends[funcByName(t, cg, "leaf")] || !sends[funcByName(t, cg, "mid")] {
		t.Errorf("direct chain lost the summary: leaf=%v mid=%v",
			sends[funcByName(t, cg, "leaf")], sends[funcByName(t, cg, "mid")])
	}
	if sends[funcByName(t, cg, "pure")] || sends[funcByName(t, cg, "callsPure")] {
		t.Errorf("summary leaked into send-free functions")
	}

	// Mutual recursion: recA and recB must share one SCC, and the
	// components must come out bottom-up (leaf's before mid's).
	sccs := cg.SCCs()
	compOf := map[*FuncInfo]int{}
	for i, scc := range sccs {
		for _, fi := range scc {
			compOf[fi] = i
		}
	}
	recA, recB := funcByName(t, cg, "recA"), funcByName(t, cg, "recB")
	if compOf[recA] != compOf[recB] {
		t.Errorf("recA and recB in different SCCs: %d vs %d", compOf[recA], compOf[recB])
	}
	if l, m := compOf[funcByName(t, cg, "leaf")], compOf[funcByName(t, cg, "mid")]; l >= m {
		t.Errorf("SCC order not bottom-up: leaf in component %d, caller mid in %d", l, m)
	}
}

// TestCallGraphInterfaceDispatch pins the CHA policy: an interface call
// resolves to every package-local method that implements the interface
// (value and pointer receivers both), is marked Dynamic, and excludes
// same-name methods with the wrong signature; a call through a plain
// function value is Dynamic with no targets.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	pkg := parseAs(t, "p", `package p

type I interface{ Do() }

type S struct{}

func (S) Do() {}

type T struct{}

func (t *T) Do() {}

type U struct{}

func (U) Do(x int) {}

func use(i I) { i.Do() }

func useValue(f func()) { f() }
`)
	pass := testPass(pkg)
	cg := BuildCallGraph(pass)

	use := funcByName(t, cg, "use")
	if len(use.Sites) != 1 {
		t.Fatalf("use: want 1 call site, got %d", len(use.Sites))
	}
	site := use.Sites[0]
	if !site.Dynamic {
		t.Errorf("interface dispatch not marked Dynamic")
	}
	recvs := map[string]bool{}
	for _, tgt := range site.Targets {
		recvs[recvTypeName(tgt.Obj)] = true
	}
	if len(site.Targets) != 2 || !recvs["S"] || !recvs["T"] {
		t.Errorf("CHA targets: want exactly {S.Do, (*T).Do}, got %v", recvs)
	}

	useValue := funcByName(t, cg, "useValue")
	if len(useValue.Sites) != 1 {
		t.Fatalf("useValue: want 1 call site, got %d", len(useValue.Sites))
	}
	if fv := useValue.Sites[0]; !fv.Dynamic || len(fv.Targets) != 0 {
		t.Errorf("function-value call: want Dynamic with no targets, got Dynamic=%v targets=%d",
			fv.Dynamic, len(fv.Targets))
	}
}

// TestCallGraphGoStatementSeparation pins that the call of a `go`
// statement is absent from the spawner's Sites: the spawned body does
// not run under the caller's locks.
func TestCallGraphGoStatementSeparation(t *testing.T) {
	pkg := parseAs(t, "p", `package p

func worker(ch chan int) {
	for v := range ch {
		_ = v
	}
}

func spawn(ch chan int) {
	go worker(ch)
	go func() { close(ch) }()
}
`)
	pass := testPass(pkg)
	cg := BuildCallGraph(pass)

	spawn := funcByName(t, cg, "spawn")
	for _, site := range spawn.Sites {
		if fn := callee(pass.TypesInfo, site.Call); fn != nil && fn.Name() == "worker" {
			t.Errorf("go statement's call leaked into Sites")
		}
	}
}
