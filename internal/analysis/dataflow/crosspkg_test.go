package dataflow_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
	"rups/internal/analysis/loader"
)

// TestCrossPackageTaintSummaries checks that a caller's analysis resolves
// the summaries of a callee in another loaded package, even though the
// caller sees that callee through an export-data twin of its *types.Func.
func TestCrossPackageTaintSummaries(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src")
	pkgs, err := loader.Load(dir, "./wirecross", "./wiredec")
	if err != nil {
		t.Fatalf("loader.Load: %v", err)
	}
	prog := dataflow.NewProgram(pkgs)

	var cross *loader.Package
	for _, p := range pkgs {
		if p.Name == "wirecross" {
			cross = p
		}
	}
	if cross == nil {
		t.Fatal("wirecross not loaded")
	}
	pass := &analysis.Pass{
		Fset:      cross.Fset,
		Files:     cross.Syntax,
		Pkg:       cross.Types,
		TypesInfo: cross.TypesInfo,
		Program:   prog,
	}
	df := dataflow.AnalysisOf(pass)

	var dec *types.Package
	for _, imp := range cross.Types.Imports() {
		if imp.Name() == "wiredec" {
			dec = imp
		}
	}
	if dec == nil {
		t.Fatal("wirecross does not import wiredec")
	}
	summary := func(name string) *dataflow.Summary {
		t.Helper()
		fn, _ := dec.Scope().Lookup(name).(*types.Func)
		if fn == nil {
			t.Fatalf("wiredec.%s not found", name)
		}
		s := df.SummaryAny(fn)
		if s == nil {
			t.Fatalf("no cross-package summary for wiredec.%s", name)
		}
		return s
	}
	if !summary("Count").ReturnsTainted {
		t.Error("Count: ReturnsTainted = false, want true")
	}
	if s := summary("Alloc"); !s.UnguardedParams[0] {
		t.Error("Alloc: parameter 0 not unguarded")
	}
	if s := summary("AllocChecked"); s.UnguardedParams[0] {
		t.Error("AllocChecked: guarded parameter reported unguarded")
	}

	// Without the program, the same package sees no foreign summaries.
	pass.Program = nil
	if fn, _ := dec.Scope().Lookup("Count").(*types.Func); dataflow.AnalysisOf(pass).SummaryAny(fn) != nil {
		t.Error("standalone analysis resolved a foreign summary")
	}
}

// TestCrossPackageFixpoint checks that a summary which depends on a
// foreign one is recomputed once that one is known: wirerelay.Count
// returns wiredec.Count's tainted result.
func TestCrossPackageFixpoint(t *testing.T) {
	pkgs, err := loader.Load(filepath.Join("..", "testdata", "src"), "./wiredec", "./wirerelay")
	if err != nil {
		t.Fatalf("loader.Load: %v", err)
	}
	// The loader lists dependencies first. Put the relay first instead, so
	// its first summary round cannot see wiredec's.
	if pkgs[0].Name != "wirerelay" {
		pkgs[0], pkgs[1] = pkgs[1], pkgs[0]
	}
	relay := pkgs[0]
	df := dataflow.AnalysisOf(&analysis.Pass{
		Fset:      relay.Fset,
		Files:     relay.Syntax,
		Pkg:       relay.Types,
		TypesInfo: relay.TypesInfo,
		Program:   dataflow.NewProgram(pkgs),
	})
	fn, _ := relay.Types.Scope().Lookup("Count").(*types.Func)
	if s := df.SummaryOf(fn); s == nil || !s.ReturnsTainted {
		t.Errorf("wirerelay.Count summary %+v, want ReturnsTainted", s)
	}
}
