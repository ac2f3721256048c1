package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string // import path ("quaestor/internal/store")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with one shared FileSet and one
// shared source importer, so dependency packages are type-checked once
// per process rather than once per target.
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom

	// fixtureRoot, when set, resolves imports inside it before falling
	// back to the real importer — the analysistest GOPATH=testdata trick.
	fixtureRoot string
	fixtures    map[string]*types.Package
}

// NewLoader builds a loader rooted at the module directory (found by
// walking up from the working directory to go.mod). The source importer
// resolves module-local imports through the go command, which runs in
// the process working directory — pinning build.Default.Dir keeps that
// resolution anchored to the module even when a test harness chdirs.
func NewLoader() (*Loader, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	build.Default.Dir = root
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		imp:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		fixtures: map[string]*types.Package{},
	}, nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above working directory")
		}
		dir = parent
	}
}

// LoadDir parses the non-test Go files of dir and type-checks them as
// importPath.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	return l.check(dir, importPath, files, l.imp)
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour build constraints like the compiler does, so a
		// race/!race file pair is one declaration, not two.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return files, nil
}

func (l *Loader) check(dir, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadFixture type-checks root/importPath, resolving imports from inside
// root first (so fixtures can model quaestor packages under short import
// paths like "internal/commitlog") and from the standard library
// otherwise.
func (l *Loader) LoadFixture(root, importPath string) (*Package, error) {
	l.fixtureRoot = root
	files, err := l.parseDir(filepath.Join(root, importPath))
	if err != nil {
		return nil, err
	}
	return l.check(filepath.Join(root, importPath), importPath, files, &fixtureImporter{l: l})
}

// fixtureImporter resolves fixture-local packages before delegating to
// the real importer.
type fixtureImporter struct {
	l *Loader
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := fi.l
	if p, ok := l.fixtures[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.fixtureRoot, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(dir, path, files, fi)
		if err != nil {
			return nil, err
		}
		l.fixtures[path] = pkg.Types
		return pkg.Types, nil
	}
	return l.imp.ImportFrom(path, srcDir, mode)
}

// ListedPackage is one `go list -json` record, trimmed to what the
// checker needs.
type ListedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// GoList enumerates the packages matching patterns via the go command.
func GoList(patterns ...string) ([]ListedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = build.Default.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []ListedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p ListedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if len(p.GoFiles) == 0 || strings.Contains(p.ImportPath, "/testdata/") {
			continue
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}
