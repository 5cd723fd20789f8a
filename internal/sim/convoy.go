package sim

import (
	"fmt"
	"math"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/trajectory"
)

// ConvoyRun is an executed N-vehicle scenario: vehicle 0 leads, vehicle i
// follows vehicle i−1 with the scenario's initial gap. It is the
// multi-vehicle counterpart of Run, built for batch resolution through the
// engine.
type ConvoyRun struct {
	Scenario Scenario
	Vehicles []*VehicleRun // index 0 = leader, increasing = further back
}

// ExecuteConvoy runs an n-vehicle follow chain deterministically: same
// city, field, and road selection as Execute, with each vehicle's full
// on-board pipeline.
func ExecuteConvoy(sc Scenario, n int) *ConvoyRun {
	if sc.DistanceM <= 0 || sc.Radios <= 0 || n < 2 {
		panic(fmt.Sprintf("sim: invalid convoy scenario %+v (n=%d)", sc, n))
	}
	_, _, src, cfg := world(sc)
	traces := make([]*mobility.Trace, n)
	traces[0] = mobility.Drive(cfg)
	for vi := 1; vi < n; vi++ {
		fc := cfg
		fc.Lane = sc.FollowerLane
		fc.Seed = noise.Hash(sc.Seed, uint64(vi+1))
		traces[vi] = mobility.Follow(fc, traces[vi-1], sc.InitGapM)
	}

	run := &ConvoyRun{Scenario: sc, Vehicles: make([]*VehicleRun, n)}
	// One recorder lookup for the whole convoy, outside the vehicle loop.
	rec := obs.ActiveRecorder()
	for vi, tr := range traces {
		run.Vehicles[vi] = runVehicle(rec, tr, src, sc.Radios, sc.Placement,
			noise.Hash(sc.Seed, 0xC0, uint64(vi)), sc.SkipInterpolation, sc.Odometry)
	}
	return run
}

// TruthGapAt returns the ground-truth front-rear distance between vehicles
// i (rear) and j (front) at time t. Positive when j is ahead.
func (r *ConvoyRun) TruthGapAt(i, j int, t float64) float64 {
	return mobility.TrueGap(r.Vehicles[j].Truth, r.Vehicles[i].Truth, t)
}

// TimeSpan returns the convoy's common simulated interval: from the last
// vehicle's start to the earliest end.
func (r *ConvoyRun) TimeSpan() (t0, t1 float64) {
	t0 = r.Vehicles[0].Truth.States[0].T
	t1 = t0 + r.Vehicles[0].Truth.Duration()
	for _, v := range r.Vehicles[1:] {
		s0 := v.Truth.States[0].T
		s1 := s0 + v.Truth.Duration()
		if s0 > t0 {
			t0 = s0
		}
		if s1 < t1 {
			t1 = s1
		}
	}
	return t0, t1
}

// ContextsAt returns every vehicle's trajectory as known at time t — the
// per-tick admission input for the engine.
func (r *ConvoyRun) ContextsAt(t float64) []*trajectory.Aware {
	ctxs := make([]*trajectory.Aware, len(r.Vehicles))
	for i, v := range r.Vehicles {
		ctxs[i] = v.Aware.PrefixUntil(t)
	}
	return ctxs
}

// ResolveAllAt answers every pairwise relative-distance query at time t
// through the engine: contexts are admitted once, then all pairs resolve
// concurrently over the pool. Result (i, j) estimates how far vehicle j is
// ahead of vehicle i; each is bit-identical to the sequential
// core.Resolve on the same contexts. Returns engine.ErrClosed if the
// engine was closed. When telemetry is enabled, each resolved pair's
// |d_r error| against the mobility ground truth lands in the
// rups_sim_pair_error_metres histogram.
func (r *ConvoyRun) ResolveAllAt(e *engine.Engine, t float64, p core.Params) ([]engine.Result, error) {
	res, err := e.ResolveAll(r.ContextsAt(t), p)
	if err != nil {
		return nil, err
	}
	if tel := simTel.Get(); tel != nil {
		for _, pr := range res {
			if !pr.OK {
				tel.unresolved.Inc()
				continue
			}
			tel.resolved.Inc()
			tel.pairError.Observe(math.Abs(pr.Est.Distance - r.TruthGapAt(pr.A, pr.B, t)))
		}
	}
	return res, nil
}
