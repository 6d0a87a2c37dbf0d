package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule parses and type-checks every package under root (a module
// root directory whose module path is modPath) and returns them in
// import-path order, ready for RunAnalyzers/Audit. It is the loader
// behind cmd/simquerylint.
//
// Intra-module imports resolve from source, recursively; the standard
// library resolves through the go/importer source compiler (offline,
// no export data needed). In-package _test.go files are included in
// the returned analysis packages — suppressions live there too — but
// excluded from packages loaded as dependencies. External-test
// packages (package foo_test) are returned as their own analysis
// packages under "<path>_test", checked against the package with its
// in-package test files: the audit must see every //lint:allow
// directive, wherever it lives.
//
// Directories named testdata, .git, or starting with "." or "_" are
// skipped, as are directories with no buildable .go files.
func LoadModule(root, modPath string) ([]*Package, error) {
	ld := newModuleLoader(root, modPath)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path, true)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		importPath, err := ld.importPathOf(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := ld.loadDir(dir, importPath, true)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		xtest, err := ld.loadExternalTests(dir, importPath)
		if err != nil {
			return nil, err
		}
		if xtest != nil {
			pkgs = append(pkgs, xtest)
		}
	}
	return pkgs, nil
}

type moduleLoader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	deps    map[string]*types.Package // memoized no-test dependency loads
	loading map[string]bool           // cycle guard
}

// newModuleLoader resolves imports under modPath from root's source tree.
func newModuleLoader(root, modPath string) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		deps:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

func (ld *moduleLoader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return ld.modPath, nil
	}
	return ld.modPath + "/" + filepath.ToSlash(rel), nil
}

func (ld *moduleLoader) dirOf(importPath string) string {
	if importPath == ld.modPath {
		return ld.root
	}
	rel := strings.TrimPrefix(importPath, ld.modPath+"/")
	return filepath.Join(ld.root, filepath.FromSlash(rel))
}

// Import implements types.Importer for the checker's dependency
// resolution: module-local paths load from source here, everything else
// (the standard library) delegates.
func (ld *moduleLoader) Import(path string) (*types.Package, error) {
	if path != ld.modPath && !strings.HasPrefix(path, ld.modPath+"/") {
		return ld.std.Import(path)
	}
	if pkg, ok := ld.deps[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)
	p, err := ld.loadDir(ld.dirOf(path), path, false)
	if err != nil {
		return nil, err
	}
	ld.deps[path] = p.Pkg
	return p.Pkg, nil
}

// loadDir parses and checks one directory as one package.
func (ld *moduleLoader) loadDir(dir, importPath string, withTests bool) (*Package, error) {
	names, err := goFilesIn(dir, withTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// The first non-test file names the package; in-package test
		// files share it, external-test files (package foo_test) are
		// dropped.
		if pkgName == "" && !strings.HasSuffix(name, "_test.go") {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	kept := files[:0]
	for _, f := range files {
		if pkgName == "" || f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept

	info := newTypesInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Fset: ld.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// loadExternalTests checks dir's external-test files (package
// foo_test), if any, as one package under importPath+"_test".
func (ld *moduleLoader) loadExternalTests(dir, importPath string) (*Package, error) {
	names, err := goFilesIn(dir, true)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	// As `go test` builds it, an external test sees its package with the
	// in-package test files (an export_test.go's helpers), and every
	// module package it imports is built against that variant.
	tl := &moduleLoader{root: ld.root, modPath: ld.modPath, fset: ld.fset, std: ld.std,
		deps: map[string]*types.Package{}, loading: map[string]bool{}}
	variant, err := tl.loadDir(dir, importPath, true)
	if err != nil {
		return nil, err
	}
	tl.deps[importPath] = variant.Pkg
	info := newTypesInfo()
	conf := types.Config{Importer: tl}
	pkg, err := conf.Check(importPath+"_test", ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s_test: %w", importPath, err)
	}
	return &Package{Fset: ld.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// goFilesIn lists the buildable .go files directly under dir, sorted;
// withTests=false drops _test.go files. Build constraints (//go:build
// lines and GOOS/GOARCH file suffixes) are honored for the host
// platform via go/build, so paired real/stub implementations don't
// collide.
func goFilesIn(dir string, withTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !withTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	return names, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
