// Package obsdiscipline enforces the telemetry layer's handle contract:
// metric handles (Registry.Counter/Gauge/Histogram) are process-lifetime
// objects, built once inside an obs.NewView build function and fetched
// through the cached View. A handle constructed anywhere else is flagged.
//
// Raw obs.Default / obs.ActiveRecorder / flight.Active lookups are not
// flagged, in loops or out: each is a single atomic pointer load, the
// same cost as the sanctioned View.Get (which calls obs.Default itself),
// and the lookup must be re-read per operation so recorder swaps take
// effect. internal/obs itself owns the registry and is exempt.
package obsdiscipline

import (
	"strings"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
)

// Analyzer flags metric handle construction off the cached obs.View path.
var Analyzer = &analysis.Analyzer{
	Name: "obsdiscipline",
	Doc: "flags metric handle construction (Registry.Counter/Gauge/Histogram) " +
		"outside obs.NewView builds (the cached-View contract)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil // the telemetry layer owns its registry
	}
	for _, pf := range dataflow.ProgramOf(pass).Functions() {
		if pf.Pkg.Path() != pass.Pkg.Path() {
			continue
		}
		for _, s := range pf.Effects.HandleSites {
			pass.Reportf(s.Pos, "%s creates a metric handle outside an obs.NewView "+
				"build function: handles are process-lifetime, construct them once "+
				"in a view", s.What)
		}
	}
	return nil
}
