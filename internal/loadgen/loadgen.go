// Package loadgen is the fault-injecting load generator behind
// cmd/rups-load and the service soak. It replays two simulated convoys
// with ground truth against a running rups-serve: each vehicle is one TCP
// connection that streams its new marks every round and asks for the
// distance to a convoy neighbour or, for a fixed share of its queries, to
// a vehicle on the other road, whose right answer is Unresolved. The fault
// knobs drive the server into its refusal paths on purpose.
package loadgen

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"rups/internal/city"
	"rups/internal/noise"
	"rups/internal/serve"
	"rups/internal/sim"
	"rups/internal/stats"
)

const (
	concurrency = 64   // simultaneously active vehicles
	maxPerRoad  = 6    // convoy length cap
	driveM      = 600  // each convoy's drive, metres
	crossShare  = 0.25 // share of queries that go to the other road
)

// LoadConfig drives RunLoad. The run is replayable from Seed up to network
// and scheduling timing.
type LoadConfig struct {
	Addr string // server address
	// Vehicles is the number of connections, IDs 1..Vehicles. Past the
	// fleet's size each block of IDs replays the fleet under its own IDs.
	Vehicles int
	// Rounds splits the convoys' common drive into equal sim-time steps;
	// round r streams the marks completed by the end of step r.
	Rounds          int
	QueriesPerRound int     // pair queries per vehicle per round (default 1)
	DeadlineRel     float64 // per-query relative deadline, s (0 = none)
	Seed            uint64  // fleet, query peers and garbage bytes
	MalformedEvery  int     // a garbage message after every Nth send (0 = off)
	StallEvery      int     // every Nth vehicle never reads responses (0 = off)
	ResetEvery      int     // every Nth vehicle restreams under a new epoch halfway (0 = off)
	PaceSec         float64 // wall time between a vehicle's rounds (0 = flat out)
}

// LoadStats aggregates one run's outcomes across the fleet.
type LoadStats struct {
	// Dials, dial/HELLO failures, connections the server closed on us
	// mid-run, and deliberate restarts.
	Connected, ConnErrors, Disconnect, Resets uint64

	QueriesSent            uint64
	SameRoad, SameRoadOK   uint64 // queries to a convoy neighbour, and their OK answers
	CrossRoad, CrossRoadOK uint64 // an OK across roads is a wrong lock

	ResultsStale, Unresolved, Shed, UnknownVeh       uint64
	Refused, RefusedQueue, RefusedRate, RefusedDrain uint64
	Drains, AcksSeen, MalformedSent                  uint64

	// ErrP90 is the 90th percentile of |d_r − truth|, metres, over the
	// ErrSamples same-road OK answers whose contexts are pinned: neither
	// changed between the query and its answer. NaN when there are none.
	ErrSamples uint64
	ErrP90     float64
}

// ResultsOK is every OK answer, on either road.
func (s LoadStats) ResultsOK() uint64 { return s.SameRoadOK + s.CrossRoadOK }

// run is one RunLoad's shared state; mu guards stats, prog, errs and every
// session's answered, drained and pend.
type run struct {
	cfg      LoadConfig
	fleet    sim.Fleet
	t0, step float64 // round r streams up to sim time cut(r)

	mu    sync.Mutex
	stats LoadStats
	prog  []progress // by vehicle ID
	errs  []float64
}

// progress is what a vehicle ID streamed, and got acked, in its epoch.
type progress struct {
	epoch       uint32
	sent, acked int
}

// session is one connection.
type session struct {
	vid, epoch uint32
	stalled    bool
	answered   int  // RESULT and REFUSE messages
	drained    bool // a DRAIN notice arrived
	pend       map[uint32]pending
}

// pending is a query in flight, by qid: its peer and both contexts then.
type pending struct {
	peer, peerE     uint32
	cross           bool
	ownN, peerAcked int
}

func (r *run) inc(n *uint64) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

// RunLoad builds the fleet, replays it against the server and blocks until
// every vehicle finishes its rounds, the server drains, or ctx ends.
func RunLoad(ctx context.Context, cfg LoadConfig) LoadStats {
	r := newRun(cfg)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for vid := 1; vid <= cfg.Vehicles && ctx.Err() == nil; vid++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			continue
		}
		wg.Add(1)
		go func(vid uint32) {
			defer func() { <-sem; wg.Done() }()
			stalled := r.cfg.StallEvery > 0 && int(vid)%r.cfg.StallEvery == 0
			resetAt := r.cfg.Rounds / 2
			if r.cfg.ResetEvery == 0 || int(vid)%r.cfg.ResetEvery != 0 {
				resetAt = -1
			}
			for epoch, round := uint32(1), 0; round >= 0; epoch, resetAt = epoch+1, -1 {
				round = r.session(ctx, &session{vid: vid, epoch: epoch, stalled: stalled, pend: map[uint32]pending{}}, resetAt, round)
			}
		}(uint32(vid))
	}
	wg.Wait() // every session and its reader are done: no lock from here
	s := r.stats
	s.ErrSamples, s.ErrP90 = uint64(len(r.errs)), math.NaN()
	if len(r.errs) > 0 {
		s.ErrP90 = stats.Quantile(r.errs, 0.9)
	}
	return s
}

// newRun builds cfg's fleet and its sim-time schedule.
func newRun(cfg LoadConfig) *run {
	cfg.QueriesPerRound = max(cfg.QueriesPerRound, 1)
	sc := sim.DefaultScenario(cfg.Seed, city.FourLaneUrban)
	sc.DistanceM, sc.RoadIndex = driveM, int(cfg.Seed)
	roads := []city.RoadClass{city.FourLaneUrban, city.EightLaneUrban}
	perRoad := min(max((cfg.Vehicles+1)/2, 2), maxPerRoad)
	r := &run{cfg: cfg, fleet: sim.BuildFleet(sc, roads, perRoad), prog: make([]progress, cfg.Vehicles+1)}
	t0, t1 := r.fleet.TimeSpan()
	r.t0, r.step = t0, (t1-t0)/float64(max(cfg.Rounds, 1))
	return r
}

// cut is the sim time up to which round streams.
func (r *run) cut(round int) float64 { return r.t0 + float64(round+1)*r.step }

// fleetVehicle maps a vehicle ID to its simulated vehicle.
func (r *run) fleetVehicle(vid uint32) *sim.FleetVehicle {
	return r.fleet[int(vid-1)%len(r.fleet)]
}

// peer picks query q's target for vid in round, within vid's block of
// IDs: a convoy neighbour or, for a crossShare of queries, the vehicle in
// the same slot on the next road. It reports false when that vehicle's ID
// is past the last connection.
func (r *run) peer(vid uint32, round, q int) (peer uint32, cross, ok bool) {
	i := int(vid-1) % len(r.fleet)
	fv := r.fleet[i]
	per := len(fv.Run.Vehicles) // every convoy of the fleet is this long
	j := i + 1                  // the rear neighbour, or the front one on a coin flip
	if fv.Slot == per-1 || fv.Slot > 0 && noise.Hash(r.cfg.Seed, uint64(vid), uint64(round), uint64(q))%2 == 0 {
		j = i - 1
	}
	if cross = noise.Uniform(r.cfg.Seed, uint64(vid), uint64(round), uint64(q), 0xC505) < crossShare; cross {
		j = (i + per) % len(r.fleet)
	}
	peer = vid + uint32(j) - uint32(i)
	return peer, cross, int(peer) <= r.cfg.Vehicles
}

// session runs one connection from startRound. It returns the round to
// reconnect from after a deliberate reset, else -1.
func (r *run) session(ctx context.Context, s *session, resetAt, startRound int) int {
	cl, err := serve.Dial(r.cfg.Addr)
	if err != nil {
		r.inc(&r.stats.ConnErrors)
		return -1
	}
	r.inc(&r.stats.Connected)
	// The reader records every server message and pokes note; it is gone
	// before the session returns, so a reconnect never races it.
	note, readerDone := make(chan struct{}, 1), make(chan struct{})
	defer func() {
		//lint:ignore errflow closing only ends the reader; a close error changes nothing
		_ = cl.Close()
		<-readerDone
	}()
	if s.stalled {
		close(readerDone) // the reader below never runs: one closer
	} else {
		go func() {
			defer close(readerDone)
			for m, err := cl.ReadMsg(); err == nil; m, err = cl.ReadMsg() {
				r.record(s, m)
				select {
				case note <- struct{}{}:
				default:
				}
			}
		}()
	}
	fv := r.fleetVehicle(s.vid)
	if err := cl.Hello(s.vid, s.epoch, fv.Aware().Width()); err != nil {
		r.inc(&r.stats.ConnErrors)
		return -1
	}
	r.mu.Lock()
	r.prog[s.vid] = progress{epoch: s.epoch}
	r.mu.Unlock()
	// wait blocks until cond holds under r.mu; false if ctx ends or the
	// server closes on us. A stalled session never waits.
	wait := func(cond func() bool) bool {
		for !s.stalled {
			r.mu.Lock()
			ok := cond()
			r.mu.Unlock()
			if ok {
				return true
			}
			select {
			case <-note:
			case <-readerDone:
				r.inc(&r.stats.Disconnect)
				return false
			case <-ctx.Done():
				return false
			}
		}
		return ctx.Err() == nil
	}
	// pause waits half a pace: queries go half a pace after the round's
	// delta, when the peers' deltas have landed, which pins their contexts.
	// False once ctx ends or the server has announced its drain.
	pause := func() bool {
		select {
		case <-time.After(time.Duration(r.cfg.PaceSec / 2 * float64(time.Second))):
		case <-ctx.Done():
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return !s.drained
	}
	// sent checks one send and follows every MalformedEvery-th with garbage.
	msgN := 0
	sent := func(err error) bool {
		if msgN++; err == nil && r.cfg.MalformedEvery > 0 && msgN%r.cfg.MalformedEvery == 0 {
			g := binary.LittleEndian.AppendUint64(nil, noise.Hash(r.cfg.Seed, uint64(s.vid), uint64(msgN)))
			g = binary.LittleEndian.AppendUint64(g, noise.Hash(r.cfg.Seed, uint64(msgN), uint64(s.vid)))
			r.inc(&r.stats.MalformedSent)
			err = cl.SendRaw(g)
		}
		if err != nil {
			r.inc(&r.stats.Disconnect)
		}
		return err == nil
	}

	// Marks are restamped onto the server clock per upload: the sim time
	// since the session's last upload is spread over the wall time since
	// then, so the newest mark reads now and times keep increasing. The
	// first upload is shifted whole.
	streamed, qid, simAt, wallAt := 0, uint32(0), math.NaN(), 0.0
	for round := startRound; round < r.cfg.Rounds; round++ {
		if !pause() {
			return -1
		}
		if d, ok := fv.DeltaUntil(streamed, r.cut(round)); ok {
			now, cut := serve.WallClock{}.Now(), r.cut(round)
			if math.IsNaN(simAt) {
				simAt, wallAt = d.Marks[0].T, now-(cut-d.Marks[0].T)
			}
			for i := range d.Marks {
				d.Marks[i].T = wallAt + (d.Marks[i].T-simAt)*(now-wallAt)/max(cut-simAt, 1e-9)
			}
			simAt, wallAt = cut, now
			// Published before the send: an answer that may have seen
			// part of this delta is never counted as pinned.
			streamed += len(d.Marks)
			r.mu.Lock()
			r.prog[s.vid].sent = streamed
			r.mu.Unlock()
			// The server acks every DATA frame into a bounded outbox: wait.
			if !sent(cl.SendDelta(d, s.epoch)) || !wait(func() bool { return r.prog[s.vid].acked >= streamed }) {
				return -1
			}
		}
		if !pause() {
			return -1
		}
		for q := 0; q < r.cfg.QueriesPerRound; q++ {
			peer, cross, ok := r.peer(s.vid, round, q)
			if !ok {
				continue
			}
			qid++
			r.mu.Lock()
			r.stats.QueriesSent++
			if cross {
				r.stats.CrossRoad++
			} else {
				r.stats.SameRoad++
			}
			pp := r.prog[peer]
			s.pend[qid] = pending{peer: peer, peerE: pp.epoch, cross: cross, ownN: streamed, peerAcked: pp.acked}
			r.mu.Unlock()
			if !sent(cl.Query(qid, s.vid, peer, r.cfg.DeadlineRel)) {
				return -1
			}
		}
		if resetAt >= 0 && round >= resetAt {
			r.inc(&r.stats.Resets)
			return round + 1 // abrupt restart: no goodbye
		}
	}
	// Count every owed answer before closing; the server answers all.
	wait(func() bool { return s.answered >= int(qid) })
	return -1
}

// record counts one server message on s's connection.
func (r *run) record(s *session, m serve.Msg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.stats
	switch m.Kind {
	case serve.MsgAck:
		st.AcksSeen++
		if p := &r.prog[s.vid]; p.epoch == s.epoch && m.AckEpoch == s.epoch {
			p.acked = max(p.acked, m.AckCum)
		}
	case serve.MsgDrain:
		st.Drains++
		s.drained = true
	case serve.MsgRefuse:
		s.answered++
		st.Refused++
		switch m.Reason {
		case serve.RefuseQueueFull:
			st.RefusedQueue++
		case serve.RefuseRate:
			st.RefusedRate++
		case serve.RefuseDraining:
			st.RefusedDrain++
		}
	case serve.MsgResult:
		s.answered++
		q := s.pend[m.QID]
		switch {
		case m.Status == serve.StatusShed:
			st.Shed++
		case m.Status == serve.StatusUnknownVehicle:
			st.UnknownVeh++
		case m.Status != serve.StatusOK:
			st.Unresolved++
		case q.cross:
			st.CrossRoadOK++
		default:
			st.SameRoadOK++
			// Pinned: this vehicle's delta was acked before the query
			// and nothing followed it; the peer's stream was applied
			// before the query and unchanged since.
			own, peer := r.prog[s.vid], r.prog[q.peer]
			if own.epoch == s.epoch && own.sent == q.ownN && q.ownN > 0 &&
				peer.epoch == q.peerE && peer.sent == q.peerAcked && q.peerAcked > 0 {
				truth := sim.TruthAhead(r.fleetVehicle(s.vid), r.fleetVehicle(q.peer), q.ownN, q.peerAcked)
				r.errs = append(r.errs, math.Abs(m.Distance-truth))
			}
		}
		if m.Status == serve.StatusOK && m.Stale {
			st.ResultsStale++
		}
	}
}
