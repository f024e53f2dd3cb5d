package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Loader resolves and type-checks packages the way `go test` builds
// them. go/build's default context (GOOS, GOARCH, build and release
// tags, read from the environment as every go tool reads them) picks
// every file: build.ImportDir those of the module's packages (import
// paths below ModulePath), checked from source, and the source
// importer, on the same context, those of every other path. All
// packages share one token.FileSet so positions stay comparable.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string

	std  types.Importer
	deps map[string]*types.Package // import variants (no test files)
	srcs map[string][]*ast.File    // their parsed files, by import path
}

// Unit is one type-checked analysis unit: a package's sources plus,
// when present, its external _test package as a separate Unit.
type Unit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewLoader locates the enclosing module (walking up from dir to the
// nearest go.mod) and prepares an importer rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		RootDir:    root,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       map[string]*types.Package{},
		srcs:       map[string][]*ast.File{},
	}, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// local reports whether path names a package of the loader's module.
func (l *Loader) local(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// Import implements types.Importer: a module-local package is its
// import variant, the build's GoFiles checked from source once; all
// other paths go to the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.local(path) {
		return l.std.Import(path)
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.RootDir, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(path, files, l, nil)
	if err != nil {
		return nil, err
	}
	l.deps[path], l.srcs[path] = pkg, files
	return pkg, nil
}

// LoadDir type-checks the package in dir as `go test` would build it:
// one Unit for the package with its in-package test files (GoFiles and
// TestGoFiles) and, when XTestGoFiles exist, a second Unit for the
// external package foo_test. A directory with no buildable Go files
// yields no unit.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.RootDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s is outside module %s", dir, l.ModulePath)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	bp, err := build.ImportDir(abs, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var units []*Unit
	xtest := &testImporter{l: l, under: path, pkgs: map[string]*types.Package{}, reach: map[string]bool{}}
	if names := append(bp.GoFiles, bp.TestGoFiles...); len(names) > 0 {
		u, err := l.unit(path, abs, names, l)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		xtest.pkgs[path] = u.Pkg
	}
	if len(bp.XTestGoFiles) > 0 {
		u, err := l.unit(path+"_test", abs, bp.XTestGoFiles, xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// unit parses and type-checks the named files of dir as one Unit.
func (l *Loader) unit(path, dir string, names []string, imp types.Importer) (*Unit, error) {
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	info := NewInfo()
	pkg, err := l.check(path, files, imp, info)
	if err != nil {
		return nil, err
	}
	return &Unit{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// parse parses the named files of dir.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	return files, nil
}

// testImporter resolves the imports of package P's external test unit
// as `go test` links them: P is P's own unit, in-package test files
// included; every module package whose imports reach P is checked
// again against that unit ("recompiled for test"); every other package
// is the loader's shared import variant.
type testImporter struct {
	l     *Loader
	under string                    // P's import path
	pkgs  map[string]*types.Package // P's unit and the recompiled packages
	reach map[string]bool           // import path -> reaches P
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	shared, err := ti.l.Import(path)
	if err != nil || !ti.reaches(shared) {
		return shared, err
	}
	pkg, err := ti.l.check(path, ti.l.srcs[path], ti, nil)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// reaches reports whether the shared variant pkg imports P, directly
// or not.
func (ti *testImporter) reaches(pkg *types.Package) bool {
	if r, ok := ti.reach[pkg.Path()]; ok {
		return r
	}
	r := false
	for _, imp := range pkg.Imports() {
		if imp.Path() == ti.under || ti.l.local(imp.Path()) && ti.reaches(imp) {
			r = true
			break
		}
	}
	ti.reach[pkg.Path()] = r
	return r
}

// check runs the type checker over files with the given importer,
// recording into info; the variants only imported, which no analyzer
// reads, pass nil.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return pkg, nil
}

// NewInfo allocates a fully populated types.Info so analyzers never
// hit a nil map.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// ExpandPatterns turns command-line package patterns ("./...", a
// directory, or a lone "...") into the directories they name, relative
// patterns resolved against root; LoadDir skips those without a
// buildable package.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
