// Package timedet guards the simulation's per-seed determinism: inside
// the deterministic packages (sim, link, v2v, engine, serve, and
// cmd/rups-sim) it flags direct wall-clock reads (time.Now, time.Since,
// time.Until) and draws from the global math/rand source.
//
// The chaos and replay tests depend on a run being a pure function of its
// seed; one time.Now in a resolution path makes failures unreproducible.
// Only direct call sites in the package are checked: a source reached
// through another package's function is that package's concern.
package timedet

import (
	"go/ast"
	"go/types"
	"strings"

	"rups/internal/analysis"
)

// Analyzer flags wall-clock reads and global-randomness draws in
// deterministic simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "timedet",
	Doc: "flags time.Now/Since/Until and global math/rand calls in " +
		"deterministic simulation code (sim, link, v2v, engine, serve, " +
		"cmd/rups-sim), breaking per-seed reproducibility",
	Run: run,
}

// restrictedNames are the package names under the determinism contract.
var restrictedNames = map[string]bool{
	"sim": true, "link": true, "v2v": true, "engine": true, "serve": true,
}

func run(pass *analysis.Pass) error {
	if !restrictedNames[pass.Pkg.Name()] && !strings.HasSuffix(pass.Pkg.Path(), "cmd/rups-sim") {
		return nil
	}
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return
		}
		fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		switch path := fn.Pkg().Path(); path {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "time.%s in deterministic simulation code: wall-clock "+
					"breaks per-seed reproducibility; thread the sim timestamp instead", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			// Package-level functions draw from the shared global source;
			// explicitly seeded *Rand values (rand.New) stay deterministic.
			switch fn.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			default:
				pass.Reportf(call.Pos(), "global %s.%s in deterministic simulation code: draws "+
					"depend on process history; use a seeded source (internal/noise)",
					strings.TrimPrefix(path, "math/"), fn.Name())
			}
		}
	})
	return nil
}
