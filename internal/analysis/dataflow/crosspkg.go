package dataflow

import (
	"go/types"

	"rups/internal/analysis"
	"rups/internal/analysis/loader"
)

// Program is the dataflow view of one load: every package's Analysis,
// with call summaries resolved across package boundaries, so a tainted
// count handed to a decode helper in another package is caught at the
// call. rups-lint builds one per run and attaches it to every pass
// as analysis.Pass.Program; AnalysisOf retrieves the pass's package.
//
// The loader type-checks each target package from source while its
// importers see export-data twins of the same packages, so *types.Func
// identity does not hold across package boundaries: summaries are keyed
// program-wide by funcID instead.
type Program struct {
	analyses map[string]*Analysis // package path → analysis
	taints   map[string]*Summary  // funcID → summary
}

// NewProgram analyzes every loaded package and iterates the per-package
// summaries to a global fixpoint. Facts only climb the lattice, so the
// iteration terminates.
func NewProgram(pkgs []*loader.Package) *Program {
	p := &Program{
		analyses: make(map[string]*Analysis),
		taints:   make(map[string]*Summary),
	}
	all := make([]*Analysis, len(pkgs))
	for i, pkg := range pkgs {
		a := New(&analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		})
		self := pkg.Types
		a.foreign = func(fn *types.Func) *Summary {
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == self {
				return nil // same package: the local summary map already answered
			}
			return p.taints[funcID(fn)]
		}
		for fn, s := range a.summaries {
			p.taints[funcID(fn)] = s
		}
		p.analyses[pkg.Path] = a
		all[i] = a
	}
	for changed := true; changed; {
		changed = false
		for _, a := range all {
			if a.recompute() {
				changed = true
			}
		}
	}
	return p
}

// AnalysisOf is the analyzer-facing entry point: the pass's analysis out
// of the run's Program, so def-use chains are built once per run and
// cross-package summaries resolve. Without a Program (or for a package it
// does not hold) it analyzes the pass's package alone.
func AnalysisOf(pass *analysis.Pass) *Analysis {
	if p, ok := pass.Program.(*Program); ok && p != nil {
		if a := p.analyses[pass.Pkg.Path()]; a != nil {
			return a
		}
	}
	return New(pass)
}

// funcID is the canonical identity of a function across the load:
// "pkgpath.Name" for package functions, "pkgpath.(Recv).Name" for
// methods. Export-data twins of a source-checked function share it.
func funcID(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return path + ".(" + recvName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return path + "." + fn.Name()
}

func recvName(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return "*" + recvName(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return recvName(types.Unalias(t))
	}
	return t.String()
}
