package sim

import (
	"math"
	"sync"

	"rups/internal/city"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// FleetVehicle is one vehicle of a Fleet: its convoy's run and its place.
type FleetVehicle struct {
	Run  *ConvoyRun // its convoy; one road is one convoy
	Slot int        // position in the convoy, 0 = leader
}

// Fleet is several convoys of equal length driving distinct roads of one
// city, each with its own ground truth. Vehicles are ordered road by road,
// leader first, so an index is a stable vehicle ID for a given build.
type Fleet []*FleetVehicle

// BuildFleet runs ExecuteConvoy with perRoad vehicles once per road
// class, all in parallel. Every convoy takes sc's settings with its road
// class replaced, so all of them share sc.Seed's city and GSM field: pairs
// on different roads are the ones that must not lock.
func BuildFleet(sc Scenario, classes []city.RoadClass, perRoad int) Fleet {
	runs := make([]*ConvoyRun, len(classes))
	var wg sync.WaitGroup
	for g, class := range classes {
		wg.Add(1)
		go func(g int, s Scenario) {
			defer wg.Done()
			s.RoadClass = class
			runs[g] = ExecuteConvoy(s, perRoad)
		}(g, sc)
	}
	wg.Wait()
	var f Fleet
	for _, run := range runs {
		for slot := range run.Vehicles {
			f = append(f, &FleetVehicle{Run: run, Slot: slot})
		}
	}
	return f
}

// TimeSpan is the sim interval every convoy of the fleet covers.
func (f Fleet) TimeSpan() (t0, t1 float64) {
	t0, t1 = math.Inf(-1), math.Inf(1)
	for _, v := range f {
		a, b := v.Run.TimeSpan()
		t0, t1 = math.Max(t0, a), math.Min(t1, b)
	}
	return t0, t1
}

// Aware is the vehicle's whole on-board GSM-aware trajectory.
func (v *FleetVehicle) Aware() *trajectory.Aware { return v.Run.Vehicles[v.Slot].Aware }

// DeltaUntil cuts v's marks from index from up to those completed by sim
// time t as an upload, stamped in sim time. It reports false when there is
// nothing new.
func (v *FleetVehicle) DeltaUntil(from int, t float64) (v2v.Delta, bool) {
	a := v.Aware().PrefixUntil(t)
	if a.Len() <= from {
		return v2v.Delta{}, false
	}
	d, err := v2v.MakeDelta(a, from)
	if err != nil {
		panic(err) // 0 ≤ from < Len by construction
	}
	return d, true
}

// TruthAhead is how far front's newest uploaded position is truly ahead of
// rear's when rear uploaded nr marks and front nf: what d_r estimates,
// defined for two vehicles of one convoy.
func TruthAhead(rear, front *FleetVehicle, nr, nf int) float64 {
	tr := rear.Aware().Geo.Marks[nr-1].T
	tf := front.Aware().Geo.Marks[nf-1].T
	return front.Run.Vehicles[front.Slot].Truth.At(tf).S - rear.Run.Vehicles[rear.Slot].Truth.At(tr).S
}
