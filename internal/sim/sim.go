// Package sim orchestrates full two-vehicle scenarios end to end: it builds
// a city and its GSM field, drives a leader and follower (IDM) over a road
// of the requested class, runs both vehicles' complete sensing pipelines
// (IMU → reorientation → odometry → dead reckoning; scanning radios →
// trajectory binding → interpolation), and answers relative-distance
// queries with RUPS and the GPS baseline against ground truth — the
// trace-driven methodology of the paper's §VI.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/fm"
	"rups/internal/geo"
	"rups/internal/gps"
	"rups/internal/gsm"
	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/rangefinder"
	"rups/internal/scanner"
	"rups/internal/sensors"
	"rups/internal/trajectory"
)

// Scenario describes one two-vehicle drive.
type Scenario struct {
	Seed         uint64
	RoadClass    city.RoadClass
	RoadIndex    int // which road of that class in the generated city
	LeaderLane   int
	FollowerLane int
	DistanceM    float64
	InitGapM     float64
	Radios       int
	Placement    scanner.Placement
	// FollowerRadios/FollowerPlacement allow asymmetric configurations
	// (the paper's "4 central radios, 4 front radios" case). Zero values
	// mean "same as leader".
	FollowerRadios    int
	FollowerPlacement scanner.Placement
	Condition         mobility.Condition
	StopEveryM        float64
	// Trucks is the number of passing-truck perturbation events aimed at
	// the follower (the Fig 10 outlier mechanism).
	Trucks int
	// SkipInterpolation leaves missing channels unfilled (ablation of the
	// §IV-C missing-channel interpolation; the SYN search falls back to
	// its missing-tolerant slow path).
	SkipInterpolation bool
	// WithFM adds the FM broadcast band to the scan (the paper's §VII
	// future-work direction): trajectories grow fm.NumStations extra rows.
	WithFM bool
	// Odometry selects the travelled-distance source (§IV-B offers OBD/ECU
	// access or motion-sensor estimation; §VI-A adds the Hall wheel
	// sensor).
	Odometry OdometrySource
}

// OdometrySource selects how a vehicle measures travelled distance.
type OdometrySource int

const (
	// WheelOBD fuses the Hall wheel-revolution counter with OBD speed —
	// the paper's instrumented setup and the default.
	WheelOBD OdometrySource = iota
	// OBDOnly integrates the quantized OBD speed feed.
	OBDOnly
	// IMUOnly integrates IMU forward acceleration with zero-velocity
	// updates (the SenSpeed-style option).
	IMUOnly
)

// String names the odometry source for evaluation output.
func (o OdometrySource) String() string {
	switch o {
	case WheelOBD:
		return "wheel + OBD"
	case OBDOnly:
		return "OBD only"
	case IMUOnly:
		return "IMU only"
	default:
		return "unknown"
	}
}

// DefaultScenario returns a same-lane pair with four front radios on a road
// of the given class.
func DefaultScenario(seed uint64, class city.RoadClass) Scenario {
	return Scenario{
		Seed:         seed,
		RoadClass:    class,
		LeaderLane:   0,
		FollowerLane: 0,
		DistanceM:    1200,
		InitGapM:     25,
		Radios:       4,
		Placement:    scanner.FrontPanel,
		StopEveryM:   600,
	}
}

// VehicleRun is one vehicle's simulated drive plus everything its on-board
// pipeline produced.
type VehicleRun struct {
	Truth *mobility.Trace
	// Aware is the estimated, bound, interpolated GSM-aware trajectory.
	Aware *trajectory.Aware
	// MarkTruePos[i] is the true world position at mark i's timestamp —
	// the ground truth for SYN point errors.
	MarkTruePos []geo.Vec2
	// MissingBeforeInterp records the missing-cell fraction before
	// interpolation (scan coverage diagnostics).
	MissingBeforeInterp float64
}

// Run is an executed scenario.
type Run struct {
	Scenario Scenario
	City     *city.City
	Field    *gsm.Field
	Road     city.Road
	Leader   *VehicleRun
	Follower *VehicleRun

	gpsLeader   gpsSeries
	gpsFollower gpsSeries
	laser       *rangefinder.Rangefinder
}

// gpsSeries is the 1 Hz fix train a receiver produced over the drive — GPS
// updates at its own cadence, not at query times, which matters for outage
// hold-overs.
type gpsSeries struct {
	t0    float64
	fixes []geo.Vec2
	fresh []bool
}

// sampleGPS runs a receiver along a truth trace at 1 Hz.
func sampleGPS(rx *gps.Receiver, truth *mobility.Trace) gpsSeries {
	s := gpsSeries{t0: truth.States[0].T}
	end := s.t0 + truth.Duration()
	for t := s.t0; t <= end; t++ {
		fix, fresh := rx.Fix(truth.At(t).Pos, t)
		s.fixes = append(s.fixes, fix)
		s.fresh = append(s.fresh, fresh)
	}
	return s
}

// at returns the most recent fix not after t.
func (s gpsSeries) at(t float64) (geo.Vec2, bool) {
	if len(s.fixes) == 0 {
		return geo.Vec2{}, false
	}
	i := int(t - s.t0)
	if i < 0 {
		i = 0
	}
	if i >= len(s.fixes) {
		i = len(s.fixes) - 1
	}
	return s.fixes[i], s.fresh[i]
}

// Execute runs the scenario deterministically.
func Execute(sc Scenario) *Run {
	if sc.DistanceM <= 0 || sc.Radios <= 0 {
		panic(fmt.Sprintf("sim: invalid scenario %+v", sc))
	}
	if sc.FollowerRadios == 0 {
		sc.FollowerRadios = sc.Radios
		sc.FollowerPlacement = sc.Placement
	}
	c, field, src, leadCfg := world(sc)
	leader := mobility.Drive(leadCfg)
	folCfg := leadCfg
	folCfg.Lane = sc.FollowerLane
	folCfg.Seed = noise.Hash(sc.Seed, 2)
	follower := mobility.Follow(folCfg, leader, sc.InitGapM)

	// Passing-truck perturbations around the follower.
	for k := 0; k < sc.Trucks; k++ {
		field.AddPerturber(truckFor(sc, leadCfg.Road, follower, k))
	}

	r := &Run{
		Scenario:    sc,
		City:        c,
		Field:       field,
		Road:        leadCfg.Road,
		gpsLeader:   sampleGPS(gps.NewReceiver(noise.Hash(sc.Seed, 0x6A5, 1), c), leader),
		gpsFollower: sampleGPS(gps.NewReceiver(noise.Hash(sc.Seed, 0x6A5, 2), c), follower),
		laser:       rangefinder.New(noise.Hash(sc.Seed, 0x1A5E)),
	}
	rec := obs.ActiveRecorder()
	r.Leader = runVehicle(rec, leader, src, sc.Radios, sc.Placement, noise.Hash(sc.Seed, 3), sc.SkipInterpolation, sc.Odometry)
	r.Follower = runVehicle(rec, follower, src, sc.FollowerRadios, sc.FollowerPlacement, noise.Hash(sc.Seed, 4), sc.SkipInterpolation, sc.Odometry)
	return r
}

// world builds the scenario's city, GSM field, scan source (with the FM
// band when asked) and the leader's drive on the selected road.
func world(sc Scenario) (*city.City, *gsm.Field, scanner.Source, mobility.DriveConfig) {
	c := city.Generate(city.DefaultConfig(sc.Seed))
	field := gsm.NewField(noise.Hash(sc.Seed, 0xF1E1D), gsm.GenerateTowers(noise.Hash(sc.Seed, 0x703E5), c.Bounds(), c), c)
	var src scanner.Source = field
	if sc.WithFM {
		src = scanner.NewMultiSource(field, fm.NewField(noise.Hash(sc.Seed, 0xF30), c.Bounds(), c))
	}
	roads := c.RoadsOfClass(sc.RoadClass)
	return c, field, src, mobility.DriveConfig{
		Road: roads[sc.RoadIndex%len(roads)], Lane: sc.LeaderLane, StartS: 30, Distance: sc.DistanceM,
		StartTime: 0, Seed: noise.Hash(sc.Seed, 1),
		Condition: sc.Condition, StopEveryM: sc.StopEveryM, StopSeed: sc.Seed,
	}
}

// truckFor builds the k-th passing-truck perturbation: a fast vehicle in
// the adjacent lane that overtakes the follower partway through the drive.
func truckFor(sc Scenario, road city.Road, follower *mobility.Trace, k int) gsm.TrackPerturbation {
	dur := follower.Duration()
	// Pass at a deterministic fraction of the drive.
	frac := 0.25 + 0.5*noise.Uniform(sc.Seed, 0x77C4, uint64(k))
	tc := follower.States[0].T + frac*dur
	sAtPass := follower.At(tc).S
	lane := sc.FollowerLane + 1
	if lane >= road.Class.Lanes() {
		lane = sc.FollowerLane - 1
		if lane < 0 {
			lane = 0
		}
	}
	off := road.LaneOffset(lane)
	const truckSpeed = 2.5 // m/s faster than the follower in relative terms
	return gsm.TrackPerturbation{
		PosAt: func(t float64) (geo.Vec2, bool) {
			if t < tc-20 || t > tc+20 {
				return geo.Vec2{}, false
			}
			s := sAtPass + truckSpeed*(t-tc) + follower.At(t).S - follower.At(tc).S
			return road.Line.Offset(s, off), true
		},
		RadiusM:     8,
		Loss:        11,
		ChannelFrac: 0.5,
		Seed:        noise.Hash(sc.Seed, 0x77C5, uint64(k)),
	}
}

// runVehicle executes one vehicle's full on-board pipeline. The span
// recorder is threaded in from the run-level entry point — looked up once
// per run, not once per vehicle — so every vehicle of a run traces into
// the same recorder snapshot.
func runVehicle(rec *obs.Recorder, truth *mobility.Trace, field scanner.Source, radios int, placement scanner.Placement, seed uint64, skipInterp bool, odoSrc OdometrySource) *VehicleRun {
	// Mounting attitude: an arbitrary yaw and a slight pitch, unknown to
	// the pipeline.
	yaw := (noise.Uniform(seed, 1) - 0.5) * math.Pi / 2
	pitch := (noise.Uniform(seed, 2) - 0.5) * 10 * math.Pi / 180
	mount := geo.RotZ(yaw).Mul(geo.RotX(pitch))

	const stationaryS = 5.0
	imu := sensors.SimulateIMU(truth, sensors.DefaultIMUConfig(noise.Hash(seed, 3), mount), stationaryS)
	r := sensors.EstimateMount(imu, truth.States[0].T)
	obd := sensors.SimulateOBD(truth, sensors.DefaultOBDConfig(noise.Hash(seed, 4)))
	var odo sensors.DistanceSource
	switch odoSrc {
	case WheelOBD:
		wcfg := sensors.DefaultWheelConfig(noise.Hash(seed, 5))
		// Per-vehicle tyre variation: each car's true circumference differs.
		wcfg.TrueCircumferenceM *= 1 + 0.004*(noise.Uniform(seed, 6)-0.5)
		pulses := sensors.SimulateWheel(truth, wcfg)
		odo = sensors.NewOdometer(pulses, wcfg, obd)
	case OBDOnly:
		odo = sensors.NewOBDOdometer(obd)
	case IMUOnly:
		odo = sensors.NewIMUOdometer(sensors.SpeedFromIMU(imu, r, imu[0].T))
	default:
		panic("sim: unknown odometry source")
	}
	g := sensors.DeadReckon(imu, r, odo, truth.States[0].T)

	// One trace covers this vehicle's scan → bind → interpolate leg of the
	// pipeline; the searcher/engine stages trace their own passes.
	tr := rec.NewTrace()
	sp := rec.Start(tr, "scan")
	samples := scanner.Scan(truth, field, scanner.DefaultConfig(noise.Hash(seed, 7), radios, placement))
	sp.Arg = int64(len(samples))
	sp.End()
	sp = rec.Start(tr, "bind")
	aware := trajectory.BindWidth(g, samples, field.Channels())
	sp.Arg = int64(aware.Len())
	sp.End()
	missing := aware.MissingFrac()
	if !skipInterp {
		sp = rec.Start(tr, "interpolate")
		aware.Interpolate()
		sp.End()
	}

	truePos := make([]geo.Vec2, len(g.Marks))
	for i, mk := range g.Marks {
		truePos[i] = truth.At(mk.T).Pos
	}
	return &VehicleRun{
		Truth:               truth,
		Aware:               aware,
		MarkTruePos:         truePos,
		MissingBeforeInterp: missing,
	}
}

// PipelineVehicle runs the full on-board pipeline (IMU → reorientation →
// odometry → dead reckoning; scan → bind → interpolate) for an arbitrary
// ground-truth drive. It is the building block for multi-vehicle setups
// beyond the two-vehicle Scenario, e.g. convoys.
func PipelineVehicle(truth *mobility.Trace, field scanner.Source, radios int, placement scanner.Placement, seed uint64) *VehicleRun {
	return runVehicle(obs.ActiveRecorder(), truth, field, radios, placement, seed, false, WheelOBD)
}

// ResolveAt answers a rear→front relative-distance query between any two
// pipelined vehicles at time t: the estimate is positive when front is
// ahead of rear.
func ResolveAt(rear, front *VehicleRun, t float64, p core.Params) (core.Estimate, bool) {
	return core.Resolve(rear.Aware.PrefixUntil(t), front.Aware.PrefixUntil(t), p)
}

// QueryResult is one relative-distance query answered by RUPS and GPS.
type QueryResult struct {
	T        float64
	TruthGap float64 // ground truth front-rear distance, metres

	OK       bool // RUPS produced an estimate
	Est      core.Estimate
	RDE      float64 // |estimate − truth| when OK
	SYNErrM  float64 // true distance between the best SYN's matched marks
	GPSEst   float64
	GPSRDE   float64
	GPSFresh bool
	// LaserM/LaserOK: the validation rangefinder on the rear car (§VI-A),
	// which only returns within its 50 m effective range and on straight
	// stretches (line of sight along the lane).
	LaserM  float64
	LaserOK bool
}

// Query answers a relative-distance query at time t. Queries that mutate
// GPS receiver state should be issued in ascending time order; QueryMany
// does this for you.
func (r *Run) Query(t float64, p core.Params) QueryResult {
	res := QueryResult{T: t}
	res.TruthGap = mobility.TrueGap(r.Leader.Truth, r.Follower.Truth, t)

	pf := r.Follower.Aware.PrefixUntil(t)
	pl := r.Leader.Aware.PrefixUntil(t)
	if est, ok := core.Resolve(pf, pl, p); ok {
		res.OK = true
		res.Est = est
		res.RDE = math.Abs(est.Distance - res.TruthGap)
		res.SYNErrM = r.synError(est)
	}
	if tel := simTel.Get(); tel != nil {
		if res.OK {
			tel.resolved.Inc()
			tel.pairError.Observe(res.RDE)
		} else {
			tel.unresolved.Inc()
		}
	}

	truthF := r.Follower.Truth.At(t).Pos
	truthL := r.Leader.Truth.At(t).Pos
	// The rangefinder sees the leader when it is near the boresight of the
	// follower's heading and in range.
	if r.Scenario.LeaderLane == r.Scenario.FollowerLane {
		if d, ok := r.laser.Measure(t, truthF.Dist(truthL)); ok {
			res.LaserM, res.LaserOK = d, true
		}
	}
	fixF, freshF := r.gpsFollower.at(t)
	fixL, freshL := r.gpsLeader.at(t)
	res.GPSEst = gps.RelativeDistance(fixF, fixL)
	res.GPSRDE = math.Abs(res.GPSEst - truthF.Dist(truthL))
	res.GPSFresh = freshF && freshL
	return res
}

// synError returns the true separation of the best SYN point's matched
// marks.
func (r *Run) synError(est core.Estimate) float64 {
	best := est.SYNs[0]
	for _, s := range est.SYNs[1:] {
		if s.Score > best.Score {
			best = s
		}
	}
	if best.IdxA >= len(r.Follower.MarkTruePos) || best.IdxB >= len(r.Leader.MarkTruePos) {
		return math.NaN()
	}
	return r.Follower.MarkTruePos[best.IdxA].Dist(r.Leader.MarkTruePos[best.IdxB])
}

// GPSFixFor exposes the run's 1 Hz GPS fix series, letting the trace
// recorder materialize it. The position argument is ignored — fixes were
// produced along the truth trace when the scenario executed.
func (r *Run) GPSFixFor(leader bool, _ geo.Vec2, t float64) (geo.Vec2, bool) {
	if leader {
		return r.gpsLeader.at(t)
	}
	return r.gpsFollower.at(t)
}

// QueryTimes picks n deterministic query times spread over the drive,
// skipping a warm-up so both vehicles have context, returned sorted.
func (r *Run) QueryTimes(n int, seed uint64) []float64 {
	t0 := r.Follower.Truth.States[0].T
	t1 := t0 + r.Follower.Truth.Duration()
	warm := t0 + 60 // both vehicles need some trajectory first
	if warm > t1 {
		warm = (t0 + t1) / 2
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = warm + (t1-warm)*noise.Uniform(seed, uint64(i), 0x91)
	}
	sort.Float64s(out)
	return out
}

// QueryMany runs queries at the given times in order.
func (r *Run) QueryMany(times []float64, p core.Params) []QueryResult {
	return r.QueryManyParallel(times, p, runtime.GOMAXPROCS(0))
}

// QueryManyParallel evaluates the queries concurrently over a worker pool
// and returns the results in input order. Query is read-only with respect
// to the run (GPS fixes are precomputed; laser noise is keyed to the query
// time), so every result is the same for any worker count.
func (r *Run) QueryManyParallel(times []float64, p core.Params, workers int) []QueryResult {
	if workers < 1 {
		workers = 1
	}
	if workers > len(times) {
		workers = len(times)
	}
	out := make([]QueryResult, len(times))
	if workers <= 1 {
		for i, t := range times {
			out[i] = r.Query(t, p)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(times) {
					return
				}
				out[i] = r.Query(times[i], p)
			}
		}()
	}
	wg.Wait()
	return out
}
