package main

import (
	"sort"
	"sync"
	"time"

	"rups/internal/city"
	"rups/internal/sim"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// road names one convoy of a fleet: the road class it drives and which
// road of that class.
type road struct {
	class city.RoadClass
	index int
}

// vehicle is one simulated car: its on-board pipeline output, the
// server-side reconstruction it has uploaded so far (mirror), and the
// offset that stamps its sim-time marks on the server's clock.
type vehicle struct {
	id    uint32
	group int // which road/convoy
	slot  int // position in its convoy, 0 = leader
	run   *sim.ConvoyRun
	aware *trajectory.Aware

	offset float64 // server clock = sim time + offset
	// mirror is rebuilt from exactly the chunks the server was sent, so it
	// holds bit for bit what the server's receiver reconstructs.
	mirror *trajectory.Aware
}

// fleet is a workload's vehicles, grouped by road.
type fleet struct {
	vs   []*vehicle
	byID map[uint32]*vehicle
}

func vehicleID(group, slot int) uint32 { return uint32(100*(group+1) + slot) }

// buildFleet runs sim.ExecuteConvoy for each road, at most parallel at a
// time, and returns the fleet with its wall time.
func buildFleet(seed uint64, roads []road, perRoad, parallel int) (*fleet, time.Duration) {
	t0 := time.Now()
	runs := make([]*sim.ConvoyRun, len(roads))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for g, r := range roads {
		wg.Add(1)
		sem <- struct{}{}
		go func(g int, r road) {
			defer func() { <-sem; wg.Done() }()
			sc := sim.DefaultScenario(seed, r.class)
			sc.RoadIndex = r.index
			runs[g] = sim.ExecuteConvoy(sc, perRoad)
		}(g, r)
	}
	wg.Wait()
	f := &fleet{byID: map[uint32]*vehicle{}}
	for g, run := range runs {
		for slot, vr := range run.Vehicles {
			v := &vehicle{id: vehicleID(g, slot), group: g, slot: slot, run: run,
				aware:  vr.Aware,
				mirror: trajectory.NewAwareWidth(trajectory.Geo{}, vr.Aware.Width())}
			f.vs = append(f.vs, v)
			f.byID[v.id] = v
		}
	}
	return f, time.Since(t0)
}

// marksUntil is how many of v's marks were completed by sim time t.
func (v *vehicle) marksUntil(t float64) int {
	m := v.aware.Geo.Marks
	return sort.Search(len(m), func(i int) bool { return m[i].T > t })
}

// delta cuts v's marks [mirror.Len(), n) as an upload: a v2v delta
// restamped on the server clock. It reports false when there is nothing
// new.
func (v *vehicle) delta(n int) (v2v.Delta, bool) {
	from := v.mirror.Len()
	if n <= from {
		return v2v.Delta{}, false
	}
	d, err := v2v.MakeDelta(v.aware.PrefixUntil(v.aware.Geo.Marks[n-1].T), from)
	if err != nil {
		panic(err) // from < n ≤ Len by construction
	}
	d.Marks = d.Marks[:n-from]
	for ch := range d.Power {
		d.Power[ch] = d.Power[ch][:n-from]
	}
	for i := range d.Marks {
		d.Marks[i].T += v.offset
	}
	return d, true
}

// truthAhead is the ground-truth distance by which b's newest uploaded
// position is ahead of a's, when a has uploaded na marks and b nb: what
// d_r estimates. Only defined for two vehicles of one convoy.
func truthAhead(a, b *vehicle, na, nb int) float64 {
	ta, tb := a.aware.Geo.Marks[na-1].T, b.aware.Geo.Marks[nb-1].T
	return b.run.Vehicles[b.slot].Truth.At(tb).S - a.run.Vehicles[a.slot].Truth.At(ta).S
}

// pair is one ordered query: how far b is ahead of a.
type pair struct{ a, b uint32 }
