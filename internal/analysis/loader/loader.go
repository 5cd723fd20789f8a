// Package loader type-checks Go packages for static analysis without any
// dependency beyond the standard library and the go toolchain itself. It
// shells out to `go list -export` to enumerate packages and to obtain
// compiler export data for every dependency (standard library included), so
// only the packages under analysis are type-checked from source. This is
// what lets cmd/rups-lint run offline with an empty module cache.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path      string // import path
	Name      string // package name
	Dir       string // directory holding the sources
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds any type-checking problems encountered. Analysis can
	// proceed on a partially checked package, but diagnostics may be
	// incomplete.
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *listError
}

type listError struct {
	Err string
}

// Load type-checks the packages matching the go-list patterns, resolved
// relative to dir. Test files are not included: the linters audit shipping
// code. The returned packages share one FileSet.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string) // import path → export data file
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			cp := p
			targets = append(targets, &cp)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("loader: no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one package from source.
func check(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{
		Path:      lp.ImportPath,
		Name:      lp.Name,
		Dir:       lp.Dir,
		Fset:      fset,
		Syntax:    files,
		TypesInfo: info,
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
