// Package wiretaint flags untrusted wire input flowing into allocations,
// indexing, or loop bounds without an intervening bound check.
//
// Every decode path in internal/trace and internal/v2v is
// attacker-reachable — trajectories arrive over DSRC — and the bug class
// is concrete: before PR 1, trace.ReadFrom trusted a wire-encoded count
// in a make() call, so a corrupt 4-byte count meant gigabytes of
// allocation from a few hundred KB of input. The fuzzer found that once;
// this analyzer finds the shape every time.
//
// Sources: []byte parameters and fields, io.ReadAll / os.ReadFile
// results, and encoding/binary integer decodes. Sinks: make sizes,
// slice/array/string indices, slice bounds, and loop bounds. A value is
// cleared (Tainted → Bounded) by a dominating bound check — an if whose
// condition mentions the value and whose body returns, or clamps it —
// or by min() against a trusted limit. Calls are handled by summaries:
// passing a tainted count to a helper, in this package or another loaded
// one, whose parameter reaches a sink unguarded is flagged at the call
// site.
package wiretaint

import (
	"go/ast"
	"go/types"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "wiretaint",
	Doc: "flags wire-decoded values reaching make, indexing, or loop bounds " +
		"without a bound check (the trace.ReadFrom oversized-count bug class)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	df := dataflow.AnalysisOf(pass)
	for _, flow := range df.Flows {
		checkSinks(pass, df, flow)
		checkCallSites(pass, df, flow)
	}
	return nil
}

// checkSinks reports tainted values at the function's own sinks.
func checkSinks(pass *analysis.Pass, df *dataflow.Analysis, flow *dataflow.FuncFlow) {
	for _, sink := range flow.Sinks {
		if df.Fact(sink.Val, flow, sink.Val.Pos()) != dataflow.Tainted {
			continue
		}
		pass.Reportf(sink.Val.Pos(),
			"wire-decoded value %s reaches %s without a bound check; "+
				"validate it against the bytes actually present before use",
			describe(sink.Val), sink.Kind)
	}
}

// checkCallSites reports tainted arguments passed to same-package
// functions whose parameter reaches a sink unguarded.
func checkCallSites(pass *analysis.Pass, df *dataflow.Analysis, flow *dataflow.FuncFlow) {
	ast.Inspect(flow.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		// Same-package summaries resolve directly; cross-package ones come
		// from the shared dataflow program — a tainted count handed to a
		// decode helper in another package is the same bug.
		s := df.SummaryAny(callee)
		if s == nil {
			return true
		}
		for i, arg := range call.Args {
			if i >= len(s.UnguardedParams) || !s.UnguardedParams[i] {
				continue
			}
			if df.Fact(arg, flow, arg.Pos()) != dataflow.Tainted {
				continue
			}
			pass.Reportf(arg.Pos(),
				"wire-decoded value %s passed to %s, whose parameter %q reaches "+
					"an allocation or index without a bound check",
				describe(arg), callee.Name(), s.ParamNames[i])
		}
		return true
	})
}

// calleeFunc resolves the called function object, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// describe renders a short printable form of the offending expression.
func describe(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return "`" + e.Name + "`"
	case *ast.SelectorExpr:
		if base, ok := e.X.(*ast.Ident); ok {
			return "`" + base.Name + "." + e.Sel.Name + "`"
		}
		return "`" + e.Sel.Name + "`"
	case *ast.CallExpr:
		return "from " + describe(e.Fun)
	case *ast.BinaryExpr:
		return "in expression"
	default:
		return "here"
	}
}
