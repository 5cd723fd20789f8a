// Command servebench is the repository's end-to-end benchmark: it starts
// the shipped rups-serve as a child process on loopback, builds a
// GSM-aware fleet with sim.ExecuteConvoy, uploads it through the public
// serve.Client, drives open-loop pair queries, checks every answer, and
// prints each metric with its unit and sample count. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// It is normally run through run.sh, which builds both binaries:
//
//	bash servebench/run.sh --workload fleet-cold --seed 1 --seconds 26 --trace 0
//
// See README.md beside this file for the workloads, the metrics and the
// layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"rups/internal/city"
	"rups/internal/obs"
)

// workload is one traffic mix.
type workload struct {
	name    string
	roads   func(seed uint64) []road
	perRoad int
	// live: convoy ticks push new marks while queries run; otherwise the
	// contexts are uploaded whole during set-up and stay static.
	live     bool
	conns    int     // query connections
	rate     float64 // the fixed rate, q/s
	deadline float64 // relative query deadline, s (0 = none)
	ladder   float64 // first ladder rate, q/s
}

// fleet-cold's fixed rate, about half its capacity (~190 q/s on two
// vCPUs), and the first rate of its capacity ladder.
const (
	fleetRate   = 90
	fleetLadder = 130
)

var workloads = map[string]workload{
	"convoy-track": {
		name: "convoy-track", perRoad: 8, live: true, conns: 1,
		rate: 84, ladder: 170,
		roads: func(seed uint64) []road {
			return []road{{city.FourLaneUrban, int(seed)}, {city.EightLaneUrban, int(seed)}}
		},
	},
	"fleet-cold": {
		name: "fleet-cold", perRoad: 6, conns: 1,
		rate: fleetRate, ladder: fleetLadder,
		roads: fourRoads,
	},
	"overload": {
		name: "overload", perRoad: 6, conns: 2,
		rate: 3 * 190, deadline: 0.05, ladder: fleetLadder,
		roads: fourRoads,
	},
}

func fourRoads(seed uint64) []road {
	rs := make([]road, city.NumRoadClasses)
	for c := range rs {
		rs[c] = road{city.RoadClass(c), int(seed) + c}
	}
	return rs
}

const (
	setupReps   = 3    // set-ups per run; setup_s is their median
	ladderStep  = 1.12 // geometric ratio between ladder rates
	ladderRungs = 9    // rungs per run; they share the second half of --seconds
	tickSec     = 0.5  // convoy-track wall seconds per tick
)

func main() {
	var (
		wname   = flag.String("workload", "", "convoy-track, fleet-cold or overload")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 26, "measured seconds: half at the fixed rate, half on the capacity ladder")
		trace   = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
		bin     = flag.String("server", "", "rups-serve binary")
		state   = flag.String("state", "", "directory for the untraced results the traced run compares against")
	)
	flag.Parse()
	w, ok := workloads[*wname]
	if !ok || *bin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: servebench -server BIN -workload convoy-track|fleet-cold|overload [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	serverDefaults = readServerDefaults(*bin)
	r, err := run(w, *seed, *seconds, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	r.emit(*trace == 1, *state)
	if !r.correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	w         workload
	seed      uint64
	e2e       report // end-to-end metrics with a bound
	ungated   report // end-to-end metrics reported without one
	lay       report // per-layer metrics (traced runs)
	info      report // printed detail, not part of the JSON result
	prov      map[string]any
	correct   bool
	attempted int
	failed    int
	notes     []string
}

func (r *result) emit(traced bool, state string) {
	pj, _ := json.Marshal(r.prov)
	fmt.Printf("provenance %s\n", pj)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	r.e2e.print("end-to-end, bounded (" + r.w.name + ")")
	r.ungated.print("end-to-end, reported without a bound (" + r.w.name + ")")
	r.info.print("detail (" + r.w.name + ")")
	ref := filepath.Join(state, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	all := report{ms: append(append([]metric(nil), r.e2e.ms...), r.ungated.ms...)}
	out := r.e2e
	if traced {
		r.lay.print("per-layer (" + r.w.name + ", traced)")
		printOverhead(all, ref)
		out = report{ms: append(append([]metric(nil), r.ungated.ms...), r.lay.ms...)}
	} else if state != "" {
		saveReport(all, ref)
	}
	ms := map[string]any{}
	for _, m := range out.ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN or Inf; the printed line above shows it
		}
		ms[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	fmt.Println(string(line))
}

// saveReport keeps an untraced run's end-to-end figures for the traced run
// of the same workload and seed.
func saveReport(rep report, path string) {
	b, _ := json.Marshal(rep.ms)
	if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		// Best effort: without the file the traced run says it has no
		// reference.
		_ = os.WriteFile(path, b, 0o644)
	}
}

// printOverhead prints traced − untraced for every end-to-end metric.
func printOverhead(traced report, path string) {
	b, err := os.ReadFile(path)
	var ref []metric
	if err == nil {
		err = json.Unmarshal(b, &ref)
	}
	if err != nil {
		fmt.Println("-- tracing overhead: no untraced run of this workload and seed to compare with")
		return
	}
	fmt.Println("-- tracing overhead (traced − untraced, same workload and seed)")
	for _, u := range ref {
		if t, ok := traced.get(u.Name); ok {
			fmt.Printf("%-34s %+14.6g %-8s (%.6g → %.6g)\n", u.Name, t.Value-u.Value, u.Unit, u.Value, t.Value)
		}
	}
}

// pairSeq returns the query pair sequence. Live convoys cycle the
// rear → front neighbour pairs. Static fleets alternate a same-road pair
// with a cross-road pair, each drawn from a seeded shuffle of all ordered
// pairs of its kind.
func pairSeq(f *fleet, w workload, seed uint64) func(i int) pair {
	var same, cross []pair
	for _, a := range f.vs {
		for _, b := range f.vs {
			switch {
			case a == b:
			case w.live && a.group == b.group && a.slot == b.slot+1:
				same = append(same, pair{a.id, b.id})
			case w.live:
			case a.group == b.group:
				same = append(same, pair{a.id, b.id})
			default:
				cross = append(cross, pair{a.id, b.id})
			}
		}
	}
	if w.live {
		return func(i int) pair { return same[i%len(same)] }
	}
	rng := rand.New(rand.NewPCG(seed, 0x9a125))
	rng.Shuffle(len(same), func(i, j int) { same[i], same[j] = same[j], same[i] })
	rng.Shuffle(len(cross), func(i, j int) { cross[i], cross[j] = cross[j], cross[i] })
	return func(i int) pair {
		if i%2 == 0 {
			return same[(i/2)%len(same)]
		}
		return cross[(i/2)%len(cross)]
	}
}

// medianDur is the median of ds in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// spanSums adds up the recorded scan/bind/interpolate span durations.
func spanSums(rec *obs.Recorder) map[string]float64 {
	out := map[string]float64{}
	for _, ev := range rec.Events() {
		out[ev.Name] += ev.Dur.Seconds()
	}
	return out
}
