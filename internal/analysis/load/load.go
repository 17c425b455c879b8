// Package load type-checks module packages for the analysis framework
// without golang.org/x/tools/go/packages. It enumerates packages with
// `go list -json`, parses their files, and type-checks them in
// dependency order; standard-library imports resolve through the
// stdlib source importer, so the whole pipeline works offline.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	FileNames  []string
	Types      *types.Package
	Info       *types.Info
	// Deps holds the package's transitive import paths (module and
	// stdlib), plus direct test imports when tests were loaded.
	Deps map[string]bool
	// Root marks packages matched by the load patterns (as opposed to
	// packages pulled in only as dependencies).
	Root bool
}

// listPkg mirrors the fields of `go list -json` output we consume.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Deps         []string
	Standard     bool
	DepOnly      bool
}

// Loader caches go list metadata and type-checked packages across
// Load calls, so the lint driver and fixture tests can share work.
type Loader struct {
	Dir   string // module directory for go list (default: process cwd)
	Tests bool   // also parse and type-check _test.go files

	fset     *token.FileSet
	source   types.Importer // stdlib, from source (offline)
	meta     map[string]*listPkg
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(dir string, tests bool) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Dir:      dir,
		Tests:    tests,
		fset:     fset,
		source:   importer.ForCompiler(fset, "source", nil),
		meta:     map[string]*listPkg{},
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// Fset returns the shared file set (positions of every loaded file).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadError records one package that failed to parse or type-check
// during LoadAll.
type LoadError struct {
	ImportPath string
	Err        error
}

func (e LoadError) Error() string { return e.ImportPath + ": " + e.Err.Error() }

// Load lists the packages matching patterns and type-checks them (and
// their module dependencies). Returned packages are the pattern roots,
// in go list order. Any package failure fails the whole load; use
// LoadAll for partial-failure semantics.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	pkgs, errs, err := l.LoadAll(patterns...)
	if err != nil {
		return nil, err
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return pkgs, nil
}

// LoadAll is Load with partial-failure semantics: roots that fail to
// parse or type-check are reported in the LoadError slice while every
// healthy root still loads — a broken package must not mask findings in
// the rest of the module. The hard error is reserved for total failure
// (go list itself refusing the patterns).
func (l *Loader) LoadAll(patterns ...string) ([]*Package, []LoadError, error) {
	roots, err := l.list(patterns, false)
	if err != nil {
		return nil, nil, err
	}
	var loadErrs []LoadError
	if l.Tests {
		// Test files may import packages outside the non-test
		// dependency graph; fetch metadata for any we haven't seen.
		// Failures here surface later as type-check errors on the roots
		// that need the missing import.
		var missing []string
		seen := map[string]bool{}
		for _, ip := range roots {
			m := l.meta[ip]
			for _, extra := range [][]string{m.TestImports, m.XTestImports} {
				for _, imp := range extra {
					if imp != "C" && l.meta[imp] == nil && !seen[imp] {
						seen[imp] = true
						missing = append(missing, imp)
					}
				}
			}
		}
		if len(missing) > 0 {
			if _, err := l.list(missing, true); err != nil {
				// Retry one by one so a single unlistable test import
				// doesn't block metadata for the others.
				for _, imp := range missing {
					_, _ = l.list([]string{imp}, true)
				}
			}
		}
	}
	var out []*Package
	for _, ip := range roots {
		p, err := l.checkPkg(ip, l.Tests)
		if err != nil {
			loadErrs = append(loadErrs, LoadError{ImportPath: ip, Err: err})
		} else {
			p.Root = true
			out = append(out, p)
		}
		if l.Tests && len(l.meta[ip].XTestGoFiles) > 0 {
			xp, err := l.checkXTest(ip)
			if err != nil {
				loadErrs = append(loadErrs, LoadError{ImportPath: ip + "_test", Err: err})
				continue
			}
			xp.Root = true
			out = append(out, xp)
		}
	}
	return out, loadErrs, nil
}

// Check type-checks a single package by import path (used by
// analysistest to resolve fixture imports of real module packages).
func (l *Loader) Check(importPath string) (*Package, error) {
	if l.meta[importPath] == nil {
		if _, err := l.list([]string{importPath}, true); err != nil {
			return nil, err
		}
	}
	return l.checkPkg(importPath, false)
}

// DepsOf returns the transitive dependency set of a known package
// (empty map for stdlib / unknown paths).
func (l *Loader) DepsOf(importPath string) map[string]bool {
	out := map[string]bool{}
	m := l.meta[importPath]
	if m == nil {
		return out
	}
	for _, d := range m.Deps {
		out[d] = true
	}
	for _, d := range m.Imports {
		out[d] = true
	}
	return out
}

// list runs go list -deps -json over patterns, recording metadata, and
// returns the root import paths (DepOnly=false), or all listed paths
// when depsOnly is set (used for filling in test-import metadata).
func (l *Loader) list(patterns []string, depsOnly bool) ([]string, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Deps,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var roots []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			break
		}
		q := p
		if l.meta[p.ImportPath] == nil {
			l.meta[p.ImportPath] = &q
		}
		if depsOnly || !p.DepOnly {
			roots = append(roots, p.ImportPath)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("go list %s: no packages", strings.Join(patterns, " "))
	}
	return roots, nil
}

// imp adapts the loader to types.Importer for module-internal imports,
// falling back to the stdlib source importer.
type imp struct{ l *Loader }

func (i imp) Import(path string) (*types.Package, error) {
	m := i.l.meta[path]
	if m == nil || m.Standard {
		pkg, err := i.l.source.Import(path)
		if err == nil || m != nil {
			return pkg, err
		}
		// Unknown to both: a module package we have no metadata for yet
		// (fixture tests import real module packages without a prior
		// Load). Fetch metadata on demand and retry.
		if _, lerr := i.l.list([]string{path}, true); lerr != nil {
			return nil, err
		}
		if m = i.l.meta[path]; m == nil || m.Standard {
			return nil, err
		}
	}
	// Dependencies are always checked WITHOUT their test files: test
	// files of a dep are irrelevant to importers, and test imports may
	// legally cycle back into the importing package (B_test imports A
	// while A imports B), which would recurse forever.
	p, err := i.l.check(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// xtestImp resolves an external test package's imports: the package
// under test to its test variant, module packages that import it to
// copies checked against that variant, and the rest as imp does.
type xtestImp struct {
	l     *Loader
	under string
	pkgs  map[string]*types.Package // the test variant and the rechecked importers of it
}

func (x *xtestImp) Import(path string) (*types.Package, error) {
	if p, ok := x.pkgs[path]; ok {
		return p, nil
	}
	m := x.l.meta[path]
	if m == nil || m.Standard || !x.l.DepsOf(path)[x.under] {
		return imp{x.l}.Import(path)
	}
	files, _, err := x.l.parse(m.Dir, m.GoFiles)
	if err != nil {
		return nil, err
	}
	cfg := types.Config{Importer: x}
	tp, err := cfg.Check(path, x.l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("load: type-check %s against %s's tests: %v", path, x.under, err)
	}
	x.pkgs[path] = tp
	return tp, nil
}

// Importer exposes the loader's import resolution (module packages by
// source, stdlib by the offline source importer) for callers that
// type-check extra files against the shared FileSet — analysistest uses
// it to check fixture packages that import real module packages.
func (l *Loader) Importer() types.Importer { return imp{l} }

// NewInfo returns a fully-populated types.Info for a check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// check type-checks one module package without its test files — the
// variant dependencies resolve against.
func (l *Loader) check(importPath string) (*Package, error) {
	return l.checkPkg(importPath, false)
}

// checkPkg type-checks one module package (memoized per test/no-test
// variant). Test files are included only when withTests is set — that
// is, only for pattern roots: including them for dependencies would
// follow test-import edges, which may cycle back into the importer.
// External test packages (package foo_test) are handled by checkXTest.
func (l *Loader) checkPkg(importPath string, withTests bool) (*Package, error) {
	key := importPath
	if withTests {
		key += "\x00tests"
	}
	if p, ok := l.pkgs[key]; ok {
		return p, nil
	}
	if l.checking[key] {
		return nil, fmt.Errorf("load: import cycle through %s", importPath)
	}
	l.checking[key] = true
	defer delete(l.checking, key)
	m := l.meta[importPath]
	if m == nil {
		return nil, fmt.Errorf("load: no metadata for %q", importPath)
	}
	if len(m.CgoFiles) > 0 {
		return nil, fmt.Errorf("load: %s uses cgo, unsupported", importPath)
	}
	names := append([]string{}, m.GoFiles...)
	if withTests {
		names = append(names, m.TestGoFiles...)
	}
	files, fileNames, err := l.parse(m.Dir, names)
	if err != nil {
		return nil, err
	}
	info := NewInfo()
	cfg := types.Config{Importer: imp{l}}
	tpkg, err := cfg.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-check %s: %v", importPath, err)
	}
	deps := map[string]bool{}
	for _, d := range m.Deps {
		deps[d] = true
	}
	for _, d := range m.Imports {
		deps[d] = true
	}
	if withTests {
		for _, d := range m.TestImports {
			if d != "C" {
				deps[d] = true
			}
		}
	}
	p := &Package{
		ImportPath: importPath, Dir: m.Dir,
		Files: files, FileNames: fileNames,
		Types: tpkg, Info: info, Deps: deps,
	}
	l.pkgs[key] = p
	return p, nil
}

// parse parses the named files of the package in dir.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, []string, error) {
	var files []*ast.File
	var fileNames []string
	for _, name := range names {
		full := filepath.Join(dir, name)
		af, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, af)
		fileNames = append(fileNames, full)
	}
	return files, fileNames, nil
}

// checkXTest type-checks a package's external test package (foo_test)
// the way go test builds it: the package under test resolves to its
// test variant, so exported helpers in its _test.go files (the
// export_test.go pattern) are visible, and each module package that
// imports it is checked again against that variant, so the xtest sees
// one type identity per package across all its imports.
func (l *Loader) checkXTest(importPath string) (*Package, error) {
	xpath := importPath + "_test"
	if p, ok := l.pkgs[xpath]; ok {
		return p, nil
	}
	m := l.meta[importPath]
	files, fileNames, err := l.parse(m.Dir, m.XTestGoFiles)
	if err != nil {
		return nil, err
	}
	under, err := l.checkPkg(importPath, true)
	if err != nil {
		return nil, err
	}
	xi := &xtestImp{l: l, under: importPath, pkgs: map[string]*types.Package{importPath: under.Types}}
	info := NewInfo()
	cfg := types.Config{Importer: xi}
	tpkg, err := cfg.Check(xpath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-check %s: %v", xpath, err)
	}
	deps := map[string]bool{importPath: true}
	for d := range l.DepsOf(importPath) {
		deps[d] = true
	}
	for _, d := range m.XTestImports {
		if d != "C" {
			deps[d] = true
		}
	}
	p := &Package{
		ImportPath: xpath, Dir: m.Dir,
		Files: files, FileNames: fileNames,
		Types: tpkg, Info: info, Deps: deps,
	}
	l.pkgs[xpath] = p
	return p, nil
}
