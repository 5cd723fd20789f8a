package sim

import (
	"fmt"
	"math"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/stats"
)

// One shared run for the expensive fixture.
var sharedRun *Run

func getRun(t *testing.T) *Run {
	t.Helper()
	if sharedRun == nil {
		sc := DefaultScenario(62, city.FourLaneUrban)
		sc.DistanceM = 900
		sharedRun = Execute(sc)
	}
	return sharedRun
}

func TestExecutePipelineSanity(t *testing.T) {
	r := getRun(t)
	for name, v := range map[string]*VehicleRun{"leader": r.Leader, "follower": r.Follower} {
		if v.Aware.Len() < 700 {
			t.Errorf("%s: only %d marks for a 900 m drive", name, v.Aware.Len())
		}
		if len(v.MarkTruePos) != v.Aware.Len() {
			t.Errorf("%s: truth positions misaligned", name)
		}
		if v.MissingBeforeInterp <= 0 || v.MissingBeforeInterp >= 1 {
			t.Errorf("%s: missing fraction %v implausible", name, v.MissingBeforeInterp)
		}
	}
}

func TestMarkPositionsFollowRoad(t *testing.T) {
	r := getRun(t)
	// Consecutive mark true positions are about a metre apart (odometer
	// scale error aside).
	v := r.Follower
	var acc stats.Online
	for i := 1; i < len(v.MarkTruePos); i++ {
		acc.Add(v.MarkTruePos[i].Dist(v.MarkTruePos[i-1]))
	}
	if acc.Mean() < 0.9 || acc.Mean() > 1.1 {
		t.Errorf("mean inter-mark spacing %v, want ~1 m", acc.Mean())
	}
}

func TestQueryResolvesDistance(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	times := r.QueryTimes(25, 99)
	results := r.QueryMany(times, p)
	okCount := 0
	var rde stats.Online
	for _, q := range results {
		if !q.OK {
			continue
		}
		okCount++
		rde.Add(q.RDE)
		if q.TruthGap <= 0 {
			t.Errorf("truth gap %v not positive", q.TruthGap)
		}
	}
	if okCount < len(results)*5/10 {
		t.Fatalf("only %d/%d queries resolved", okCount, len(results))
	}
	if rde.Mean() > 8 {
		t.Errorf("mean RDE %v m, want single digits (paper: ~2-5 m)", rde.Mean())
	}
}

func TestQuerySYNError(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	var syn stats.Online
	for _, q := range r.QueryMany(r.QueryTimes(15, 123), p) {
		if q.OK && !math.IsNaN(q.SYNErrM) {
			syn.Add(q.SYNErrM)
		}
	}
	if syn.N() == 0 {
		t.Fatal("no SYN errors recorded")
	}
	if syn.Mean() > 10 {
		t.Errorf("mean SYN error %v m", syn.Mean())
	}
}

func TestQueryGPSBaseline(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	var gpsErr stats.Online
	for _, q := range r.QueryMany(r.QueryTimes(25, 7), p) {
		gpsErr.Add(q.GPSRDE)
	}
	// 4-lane urban: paper reports ~9.9 m for GPS.
	if gpsErr.Mean() < 3 || gpsErr.Mean() > 20 {
		t.Errorf("GPS mean RDE %v m, want urban-grade error", gpsErr.Mean())
	}
}

// TestExecuteDeterministic executes one scenario twice and answers the same
// queries on the first run serially and on the second over four workers:
// every field of every result must match bit for bit. It runs under
// -short too, so the race detector covers the worker fan-out.
func TestExecuteDeterministic(t *testing.T) {
	sc := DefaultScenario(77, city.TwoLaneSuburb)
	sc.DistanceM = 400
	a, b := Execute(sc), Execute(sc)
	if a.Follower.Aware.Len() != b.Follower.Aware.Len() {
		t.Fatal("non-deterministic mark count")
	}
	times := a.QueryTimes(16, 5)
	p := core.DefaultParams()
	ra, rb := a.QueryManyParallel(times, p, 1), b.QueryManyParallel(times, p, 4)
	resolved, lasered := 0, 0
	for i := range ra {
		// %v prints every float in its shortest exact form: equal strings
		// are equal bits, and a NaN SYNErrM matches a NaN.
		if x, y := fmt.Sprintf("%+v", ra[i]), fmt.Sprintf("%+v", rb[i]); x != y {
			t.Fatalf("query at t=%v diverged:\n serial   %s\n parallel %s", times[i], x, y)
		}
		if ra[i].OK {
			resolved++
		}
		if ra[i].LaserOK {
			lasered++
		}
	}
	if resolved == 0 || lasered == 0 {
		t.Fatalf("%d of %d queries resolved, %d laser readings: the comparison checked no answer", resolved, len(ra), lasered)
	}
}

func TestExecutePanicsOnBadScenario(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Execute(Scenario{})
}

func TestTruckPerturbationAffectsField(t *testing.T) {
	sc := DefaultScenario(88, city.EightLaneUrban)
	sc.DistanceM = 400
	sc.Trucks = 2
	r := Execute(sc)
	if r.Follower.Aware.Len() == 0 {
		t.Fatal("no trajectory")
	}
	// The perturbed run must still resolve most queries (robustness).
	p := core.DefaultParams()
	ok := 0
	results := r.QueryMany(r.QueryTimes(10, 5), p)
	for _, q := range results {
		if q.OK {
			ok++
		}
	}
	if ok < len(results)/2 {
		t.Errorf("only %d/%d queries resolved under perturbation", ok, len(results))
	}
}
