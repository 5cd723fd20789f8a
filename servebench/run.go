package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/trajectory"
)

// wallSec is the server's clock domain (serve.WallClock): Unix seconds.
func wallSec(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// staleLead is how far ahead of the set-up upload a static context's
// newest mark is stamped (see run).
const staleLead = 5.0

// setupStats are the set-up figures, one entry per repetition.
type setupStats struct {
	total, fleet, upload []time.Duration
	ingest               []float64 // marks acked per second of upload
	spans                []map[string]float64
}

// run executes one benchmark run: set-up (repeated setupReps times, the
// last server kept), the measured phase, the correctness gate and, when
// traced, the per-layer replay.
func run(w workload, seed uint64, seconds float64, traced bool, bin string) (*result, error) {
	var (
		ss     setupStats
		f      *fleet
		srv    *server
		st     *streamer
		tStart float64 // convoy-track: sim time of the set-up upload
		step   float64 // convoy-track: sim seconds per tick
		ticks  = int(math.Ceil(seconds / tickSec))
	)
	for rep := 0; rep < setupReps; rep++ {
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder(obs.DefaultRingSize)
			obs.SetRecorder(rec)
		}
		t0 := time.Now()
		fl, fleetDur := buildFleet(seed, w.roads(seed), w.perRoad, runtime.GOMAXPROCS(0))
		obs.SetRecorder(nil)
		s, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		sx := &streamer{addr: s.addr}
		if traced && rep == setupReps-1 {
			sx.capture, sx.captureMax = [][][]byte{}, 4096
		}
		u0 := time.Now()
		if w.live {
			tStart, step = convoyClock(fl, ticks)
		}
		for _, v := range fl.vs {
			n := v.aware.Len()
			if w.live {
				n = v.marksUntil(tStart)
				v.offset = wallSec(u0) - tStart
			} else {
				// The newest mark is stamped staleLead seconds after the
				// upload starts, so that no context's age reaches the
				// server's 30 s stale horizon before the measured phase
				// and its drains end.
				v.offset = wallSec(u0) + staleLead - v.aware.Geo.Marks[n-1].T
			}
			if err := sx.push(v, n); err != nil {
				s.kill()
				return nil, err
			}
		}
		up := time.Since(u0)
		ss.total = append(ss.total, time.Since(t0))
		ss.fleet = append(ss.fleet, fleetDur)
		ss.upload = append(ss.upload, up)
		ss.ingest = append(ss.ingest, float64(sx.marks)/up.Seconds())
		if traced {
			ss.spans = append(ss.spans, spanSums(rec))
		}
		if rep < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("set-up server %d: %w", rep, err)
			}
			continue
		}
		f, srv, st = fl, s, sx
	}
	setupCapture := st.capture
	setupChunkAck := st.chunkAckMS
	st.capture, st.chunkAckMS, st.pushAckMS = nil, nil, nil

	m, err := measure(w, seed, seconds, traced, f, srv, st, tStart, step, ticks)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		m.notes = append(m.notes, fmt.Sprintf("server exit after drain: %v", err))
		m.serverErr = true
	}

	res := &result{w: w, seed: seed, prov: provenance(w, seed, seconds, traced, m.serverProcs)}
	gate(res, w, f, m)
	endToEnd(res, w, f, ss, m, setupChunkAck)
	if traced {
		perLayer(res, w, f, ss, m, setupCapture)
	}
	return res, nil
}

// convoyClock picks the convoy-track replay window: the set-up upload
// holds every vehicle's drive up to 40% of the convoys' common span, and
// the ticks replay the rest, so each tick advances sim time by step.
func convoyClock(f *fleet, ticks int) (tStart, step float64) {
	t0, t1 := math.Inf(-1), math.Inf(1)
	seen := map[int]bool{}
	for _, v := range f.vs {
		if seen[v.group] {
			continue
		}
		seen[v.group] = true
		a, b := v.run.TimeSpan()
		t0, t1 = math.Max(t0, a), math.Min(t1, b)
	}
	tStart = t0 + 0.4*(t1-t0)
	return tStart, (t1 - tStart) / float64(ticks)
}

// measured is what the measured phase observed.
type measured struct {
	qs          []*query
	fixed       []*query
	rungs       []rung
	dur         time.Duration // fixed phase + ladder, wall
	cpuSec      float64       // server utime+stime over the measured phase
	rssMB       float64
	serverProcs int
	before      promSample
	after       promSample
	st          *streamer
	tickErrs    int
	tickTimes   []float64 // convoy-track: sim time of every completed tick
	serverErr   bool
	notes       []string
}

// measure runs the fixed-rate phase and the capacity ladder against srv.
func measure(w workload, seed uint64, seconds float64, traced bool, f *fleet, srv *server, st *streamer, tStart, step float64, ticks int) (*measured, error) {
	m := &measured{st: st}
	var err error
	if traced {
		if m.before, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	gen := &loadGen{deadline: w.deadline, next: pairSeq(f, w, seed)}
	for i := 0; i < w.conns; i++ {
		qc, err := dialQueryConn(srv.addr)
		if err != nil {
			return nil, err
		}
		gen.conns = append(gen.conns, qc)
	}
	idx := map[uint32]int{}
	for i, v := range f.vs {
		idx[v.id] = i
	}
	// Set-up garbage is collected now, not during the measured phase.
	runtime.GC()
	start := time.Now().Add(50 * time.Millisecond)

	// convoy-track: a ticker pushes every vehicle's new marks each tick on
	// the one streaming connection, while queries run on the other.
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	if w.live {
		counts := make([][]int, ticks+1)
		for k := range counts {
			counts[k] = make([]int, len(f.vs))
			for i, v := range f.vs {
				counts[k][i] = v.marksUntil(tStart + float64(k)*step)
			}
		}
		var completed atomic.Int64 // last tick whose pushes are all acked
		m.tickTimes = []float64{tStart}
		gen.snap = func(p pair) (int, int) {
			k := completed.Load()
			return counts[k][idx[p.a]], counts[k][idx[p.b]]
		}
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			for k := 1; k <= ticks; k++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(start.Add(time.Duration(float64(k) * tickSec * float64(time.Second))))):
				}
				for i, v := range f.vs {
					if err := st.push(v, counts[k][i]); err != nil {
						m.tickErrs++
					}
				}
				completed.Store(int64(k))
				m.tickTimes = append(m.tickTimes, tStart+float64(k)*step)
			}
		}()
	} else {
		gen.snap = func(p pair) (int, int) {
			return f.vs[idx[p.a]].aware.Len(), f.vs[idx[p.b]].aware.Len()
		}
	}

	const grace = 3 * time.Second
	half := seconds / 2
	m.fixed = gen.phase(w.rate, int(w.rate*half), start, grace)
	m.rungs = append(m.rungs, judge(m.fixed, w.rate))
	// The ladder always climbs every rung. A transient stall can fail a
	// rung below capacity, but above capacity the backlog grows and fails
	// it reliably, so the highest passing rung estimates capacity_qps. The
	// top rungs saturate the server and measure its throughput, peak_qps.
	rungDur := half / ladderRungs
	for k, rate := 0, w.ladder; k < ladderRungs; k, rate = k+1, rate*ladderStep {
		qs := gen.phase(rate, int(rate*rungDur), time.Now().Add(20*time.Millisecond), grace)
		m.rungs = append(m.rungs, judge(qs, rate))
	}
	m.dur = time.Since(start)
	close(stop)
	tickWG.Wait()
	for _, qc := range gen.conns {
		qc.close()
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.cpuSec = cpu1 - cpu0
	m.rssMB = srv.peakRSSMB()
	m.serverProcs = srv.gomaxprocs()
	if traced {
		if m.after, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	m.qs = gen.qs
	return m, nil
}

// gate is the correctness check. On a static fleet every answered query
// must agree with the in-process cold oracle (engine.Batch.ResolvePairs)
// over the contexts the server was sent: StatusOK where the oracle
// resolves the pair, with a bit-equal distance, and StatusUnresolved where
// it does not. Any unknown-vehicle answer, lost query, failed push or
// unclean server exit fails the run.
func gate(res *result, w workload, f *fleet, m *measured) {
	var unknown, lost, mismatch int
	asked := map[pair]bool{}
	for _, q := range m.qs {
		switch {
		case q.out == oUnknown:
			unknown++
		case q.out == oLost:
			lost++
		case q.out.answered():
			asked[q.p] = true
		}
	}
	res.attempted = len(m.qs)
	if !w.live {
		ps := make([]pair, 0, len(asked))
		for p := range asked {
			ps = append(ps, p)
		}
		oracle, err := coldOracle(f, ps)
		if err != nil {
			res.notes = append(res.notes, "oracle: "+err.Error())
			mismatch = len(m.qs)
		}
		checked := 0
		for _, q := range m.qs {
			if !q.out.answered() {
				continue
			}
			checked++
			o, ok := oracle[q.p]
			if !ok || o.ok != (q.out == oOK) || (o.ok && math.Float64bits(o.dist) != math.Float64bits(q.dist)) {
				mismatch++
			}
		}
		res.notes = append(res.notes, fmt.Sprintf("oracle gate: %d answers (%d OK, %d unresolved) over %d distinct pairs checked against the cold oracle, status and bits, %d mismatches",
			checked, countOut(m.qs, oOK), countOut(m.qs, oUnresolved), len(asked), mismatch))
	}
	res.failed = unknown + lost + mismatch + m.tickErrs
	res.correct = res.failed == 0 && !m.serverErr
	res.notes = append(res.notes, m.notes...)
	if !res.correct {
		res.notes = append(res.notes, fmt.Sprintf("CORRECTNESS GATE FAILED: %d unknown-vehicle, %d lost, %d oracle mismatches, %d failed tick pushes, server error %v",
			unknown, lost, mismatch, m.tickErrs, m.serverErr))
	}
}

// oracleAnswer is the cold oracle's verdict on one pair.
type oracleAnswer struct {
	ok   bool
	dist float64
}

// coldOracle resolves each pair in process through the cold engine path
// over the mirrors: the contexts exactly as the server reconstructed them.
func coldOracle(f *fleet, ps []pair) (map[pair]oracleAnswer, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	e := engine.New(0)
	defer e.Close()
	idx := map[uint32]int{}
	ctxs := make([]*trajectory.Aware, len(f.vs))
	for i, v := range f.vs {
		idx[v.id] = i
		ctxs[i] = v.mirror
	}
	b, err := e.Admit(ctxs...)
	if err != nil {
		return nil, err
	}
	ip := make([][2]int, len(ps))
	for i, p := range ps {
		ip[i] = [2]int{idx[p.a], idx[p.b]}
	}
	out := map[pair]oracleAnswer{}
	for i, r := range b.ResolvePairs(ip, core.DefaultParams()) {
		out[ps[i]] = oracleAnswer{ok: r.OK, dist: r.Est.Distance}
	}
	return out, nil
}

func countOut(qs []*query, o outcome) int {
	n := 0
	for _, q := range qs {
		if q.out == o {
			n++
		}
	}
	return n
}
