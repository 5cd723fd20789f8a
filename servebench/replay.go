package main

import (
	"time"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// replaySample bounds how many queries the replay times: enough for
// stable medians, few enough that the traced run stays a few seconds
// longer than the untraced one.
const replaySample = 120

// replayOffers feeds the captured set-up frames through fresh receivers
// (one per push, as the server's vehicle entries saw them) and returns the
// mean Offer time per frame in µs.
func replayOffers(pushes [][][]byte, width int) (float64, int) {
	var total time.Duration
	n := 0
	for _, frames := range pushes {
		rx := v2v.NewReceiver(width)
		for _, fr := range frames {
			t0 := time.Now()
			rx.Offer(fr)
			total += time.Since(t0)
			n++
		}
	}
	return ratio(float64(total.Nanoseconds())/1e3, float64(n)), n
}

// replay holds the in-process replay's call-by-call timings.
type replay struct {
	admitUS, resolveMS      []float64
	synMS, nosynMS          []float64
	stableHits, stableFalls float64
}

// context returns v's server-side context as it stood with n marks
// uploaded: a prefix view of the mirror.
func context(v *vehicle, n int) *trajectory.Aware {
	return v.mirror.PrefixUntil(v.mirror.Geo.Marks[n-1].T)
}

// replayQueries replays a sample of the fixed phase's queries through the
// public engine and core calls the server makes, timing each call, then
// measures the stable-order warm-start hit ratio.
func replayQueries(w workload, f *fleet, m *measured) replay {
	var rp replay
	e := engine.New(0)
	defer e.Close()
	p, pol := core.DefaultParams(), core.DefaultStaleness()
	step := len(m.fixed)/replaySample + 1
	for i := 0; i < len(m.fixed); i += step {
		q := m.fixed[i]
		a, b := f.byID[q.p.a], f.byID[q.p.b]
		ca, cb := context(a, q.na), context(b, q.nb)
		t0 := time.Now()
		batch, err := e.Admit(ca, cb)
		if err != nil {
			break
		}
		t1 := time.Now()
		batch.ResolvePairsDeadlineAt([][2]int{{0, 1}}, []float64{0}, p, wallSec(t1), pol)
		t2 := time.Now()
		rp.admitUS = append(rp.admitUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		rp.resolveMS = append(rp.resolveMS, msSince(t1, t2))

		// The same contexts through the cold sequential oracle. A live
		// convoy has no cross-road queries, so its no-SYN sample pairs the
		// rear vehicle with its counterpart in the other convoy.
		cross := cb
		if a.group == b.group {
			t3 := time.Now()
			core.Resolve(ca, cb, p)
			rp.synMS = append(rp.synMS, msSince(t3, time.Now()))
			o := counterpart(f, a)
			cross = context(o, o.marksUntil(a.aware.Geo.Marks[q.na-1].T))
		}
		t3 := time.Now()
		core.Resolve(ca, cross, p)
		rp.nosynMS = append(rp.nosynMS, msSince(t3, time.Now()))
	}
	rp.stableHits, rp.stableFalls = stableWarm(w, f, m)
	return rp
}

// counterpart is the vehicle in the same slot of the next convoy.
func counterpart(f *fleet, v *vehicle) *vehicle {
	groups := 0
	for _, u := range f.vs {
		if u.group+1 > groups {
			groups = u.group + 1
		}
	}
	return f.byID[vehicleID((v.group+1)%groups, v.slot)]
}

// stableWarm replays the served query stream through one engine whose
// admission order never changes, so each pair keeps its own warm-start
// tracker, and returns the searcher's warm-start hits and fallbacks. On a
// live convoy it replays every tick the run completed (all contexts
// admitted in fleet order, every queried neighbour pair resolved). A
// static fleet has no new marks to track, so it resolves the fixed phase's
// first queries as one batch, twice: the second pass is repeat contact.
// (One batch per pass, because the engine evicts a tracker that 64
// batches in a row have not used.)
func stableWarm(w workload, f *fleet, m *measured) (hits, falls float64) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	e := engine.New(0)
	defer e.Close()
	p, pol := core.DefaultParams(), core.DefaultStaleness()
	idx := map[uint32]int{}
	for i, v := range f.vs {
		idx[v.id] = i
	}
	if w.live {
		var pairs [][2]int
		seen := map[pair]bool{}
		for _, q := range m.qs {
			if !seen[q.p] {
				seen[q.p] = true
				pairs = append(pairs, [2]int{idx[q.p.a], idx[q.p.b]})
			}
		}
		for _, t := range m.tickTimes {
			ctxs := make([]*trajectory.Aware, len(f.vs))
			for i, v := range f.vs {
				ctxs[i] = context(v, v.marksUntil(t))
			}
			b, err := e.Admit(ctxs...)
			if err != nil {
				break
			}
			b.ResolvePairsAt(pairs, p, wallSec(time.Now()), pol)
		}
	} else {
		ctxs := make([]*trajectory.Aware, len(f.vs))
		for i, v := range f.vs {
			ctxs[i] = v.mirror
		}
		b, err := e.Admit(ctxs...)
		if err == nil {
			var pairs [][2]int
			for i := 0; i < len(m.fixed) && i < replaySample; i++ {
				pairs = append(pairs, [2]int{idx[m.fixed[i].p.a], idx[m.fixed[i].p.b]})
			}
			for pass := 0; pass < 2; pass++ {
				b.ResolvePairsAt(pairs, p, wallSec(time.Now()), pol)
			}
		}
	}
	hit := reg.Counter("rups_core_warmstart_hits_total", "")
	fall := reg.Counter("rups_core_warmstart_fallbacks_total", "")
	return float64(hit.Value()), float64(fall.Value())
}
