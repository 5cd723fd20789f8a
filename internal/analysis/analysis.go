// Package analysis is a minimal, dependency-free counterpart of
// golang.org/x/tools/go/analysis: just enough framework to write
// type-aware linters for this repository and drive them from
// cmd/rups-lint. An Analyzer inspects one type-checked package at a time
// and reports Diagnostics; the runner (Run) applies a set of analyzers to
// loaded packages and filters diagnostics suppressed with
// //lint:ignore directives.
//
// See docs/STATIC_ANALYSIS.md for the catalogue of analyzers and how to
// write a new one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"

	"rups/internal/analysis/loader"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention it is a short lowercase word.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the check to one package, reporting problems through
	// pass.Report or pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Program holds program-wide facts shared by every pass of one run:
	// the interprocedural dataflow program (*dataflow.Program) when the
	// driver built one. It is typed `any` because dataflow sits above this
	// package; analyzers retrieve it with dataflow.ProgramOf, which falls
	// back to a single-package program when the driver supplied none.
	Program any

	diags []Diagnostic
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way compilers do, with the analyzer
// name appended for grep-ability.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, message string) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  message,
	})
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. program is attached to every pass as
// Pass.Program (nil when the caller built none).
//
// Packages are the unit of parallelism: one worker per GOMAXPROCS runs the
// full roster over one package, so per-package state (ignore directives)
// never crosses a goroutine. Diagnostics are fully sorted — position,
// analyzer, message — so the output does not depend on scheduling.
// Diagnostics on lines covered by a matching //lint:ignore directive are
// dropped.
func Run(pkgs []*loader.Package, analyzers []*Analyzer, program any) ([]Diagnostic, error) {
	type pkgOut struct {
		diags []Diagnostic
		err   error
	}
	outs := make([]pkgOut, len(pkgs))
	runPkg := func(i int) {
		pkg := pkgs[i]
		ignores := collectIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Program:   program,
			}
			if err := a.Run(pass); err != nil {
				outs[i].err = fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
				return
			}
			for _, d := range pass.diags {
				if !ignores.matches(d) {
					outs[i].diags = append(outs[i].diags, d)
				}
			}
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(pkgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runPkg(i)
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var all []Diagnostic
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		all = append(all, outs[i].diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})
	return all, nil
}
