// Package engine batches relative-distance resolution across a platoon: it
// owns a bounded worker pool and resolves many vehicle pairs concurrently,
// fanning both the per-pair queries and each query's 2·NumSYN direction
// scans over the same pool. Results are bit-identical to the sequential
// core.Resolve oracle — every scheduled task is internally deterministic
// and writes only its own result slot, and combination happens in a fixed
// order — so concurrency changes latency, never answers.
//
// Trajectories are decoupled at query admission: the engine snapshots every
// live trajectory once (trajectory.Aware.Snapshot) before any worker
// touches it, so vehicles may keep appending marks while a batch resolves.
package engine

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
)

// ErrClosed is returned by admission entry points called after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is a bounded worker pool for batch relative-distance resolution.
// The zero value is not usable; construct with New and release with Close.
type Engine struct {
	workers int
	// tasks carries scheduled work to the workers. The channel doubles as
	// the workers' shutdown signal: Close closes it and the workers drain
	// and exit.
	tasks chan func()
	wg    sync.WaitGroup
	once  sync.Once

	// mu guards closed, and crucially is read-held across every channel
	// send: Close flips closed under the write lock before closing the
	// channel, so no submit can race a send against the close.
	mu     sync.RWMutex
	closed bool

	// trackers caches per-pair warm-start state across batches, keyed by
	// the pair's indexes into the admitted trajectory slice — callers using
	// ResolvePairsAt must therefore admit in a stable order (the linked-
	// convoy sim does: one fixed slot pair per link); a caller whose
	// admission order shifts between batches only loses warm windows (the
	// warm path is oracle-equivalent for any hint), it cannot get a wrong
	// answer. tmu guards the map; each Tracker itself is only touched by
	// its pair's single task. Entries are evicted on staleness expiry and
	// after trackerIdleBatches warm batches without use, so a departed
	// pair's state does not accumulate forever.
	tmu      sync.Mutex
	trackers map[[2]int]*trackerEntry
	// tgen counts warm resolve calls; each entry remembers the last
	// generation that used it.
	tgen uint64
	// classes remembers each pair's last staleness class (zero value =
	// fresh), so the flight recorder sees *transitions* — one event per
	// state change, not one per tick. Guarded by tmu; swept with trackers.
	classes map[[2]int]core.Freshness

	// nowBits is the float64 bits of the latest batch's sim time — the
	// timestamp run()'s flight events carry. The engine has no sim clock
	// of its own; ResolvePairsAt batches donate theirs.
	nowBits atomic.Uint64

	// clockNow, when set, is the time source deadline rechecks consult at
	// task start (same domain as the deadlines callers pass — sim seconds
	// in tests, wall-clock seconds in the resolution service). Nil keeps
	// the engine deterministic: deadlines are then only checked against
	// the batch's own now, before scheduling. Set via SetClock.
	clockNow func() float64
}

// SetClock installs the time source for deadline rechecks at task start.
// Must be called before the engine resolves its first batch (it is read
// concurrently by pool workers without synchronization afterwards).
func (e *Engine) SetClock(now func() float64) { e.clockNow = now }

// simNow returns the latest batch sim time donated to the engine.
func (e *Engine) simNow() float64 { return math.Float64frombits(e.nowBits.Load()) }

// trackerEntry is one cached tracker plus the last generation (warm batch)
// that touched it.
type trackerEntry struct {
	tk  *core.Tracker
	gen uint64
}

// trackerIdleBatches is how many consecutive warm batches a tracker entry
// may go unused before eviction. Convoy callers resolve every tracked pair
// every tick, so anything idle this long has left the platoon.
const trackerIdleBatches = 64

// tracker returns (creating on first contact) the warm-start state for a
// pair key.
func (e *Engine) tracker(pr [2]int) *core.Tracker {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if e.trackers == nil {
		e.trackers = make(map[[2]int]*trackerEntry)
	}
	te := e.trackers[pr]
	if te == nil {
		te = &trackerEntry{tk: core.NewTracker(0)}
		e.trackers[pr] = te
	}
	te.gen = e.tgen
	return te.tk
}

// dropTracker evicts a pair's warm-start state entirely (staleness expiry:
// a context too old to answer with cannot vouch for a warm window either,
// and an expired pair may never come back).
func (e *Engine) dropTracker(pr [2]int, fl *flight.Ring, now float64) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if _, ok := e.trackers[pr]; ok && fl != nil {
		fl.Emit(flight.Event{T: now, Kind: flight.KindWarmEvict,
			A: int32(pr[0]), B: int32(pr[1]), V1: int64(e.tgen)})
	}
	delete(e.trackers, pr)
}

// beginTrackerGen opens a new tracker generation and sweeps out entries
// that no warm batch has touched for trackerIdleBatches generations. The
// sweep is O(cached pairs) once per warm resolve call. Swept pairs also
// lose their staleness-class memory: if they return, their first
// classification is a fresh transition again.
func (e *Engine) beginTrackerGen(fl *flight.Ring, now float64) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	e.tgen++
	for pr, te := range e.trackers {
		if e.tgen-te.gen > trackerIdleBatches {
			if fl != nil {
				fl.Emit(flight.Event{T: now, Kind: flight.KindWarmEvict,
					A: int32(pr[0]), B: int32(pr[1]), V1: int64(te.gen)})
			}
			delete(e.trackers, pr)
			delete(e.classes, pr)
		}
	}
}

// noteClass records a pair's staleness class and reports the previous one
// (zero value core.FreshContext for a first sighting) — the transition
// edge the flight recorder events on.
func (e *Engine) noteClass(pr [2]int, cls core.Freshness) core.Freshness {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if e.classes == nil {
		e.classes = make(map[[2]int]core.Freshness)
	}
	prev := e.classes[pr]
	e.classes[pr] = cls
	return prev
}

// New starts an engine with the given number of workers; workers <= 0 means
// GOMAXPROCS. The pool is shared by every batch submitted to this engine.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, tasks: make(chan func())}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// worker drains the task channel until Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		t()
	}
}

// Close shuts the pool down and waits for in-flight tasks to finish. Close
// is idempotent. Afterwards Admit and ResolveAll return ErrClosed;
// batches admitted before Close still resolve correctly, degraded to
// inline (sequential) execution.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.tasks)
		e.wg.Wait()
	})
}

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// submit hands t to an idle worker if one is ready and the pool is still
// open. The read lock spans the send so Close cannot close the channel
// between the closed check and the send (TestSubmitRacesClose).
func (e *Engine) submit(t func()) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false
	}
	select {
	case e.tasks <- t:
		return true
	default:
		return false
	}
}

// run is the engine's core.Parallel implementation. Handoff is help-first:
// a task is given to an idle worker when one is ready to receive, and run
// inline on the calling goroutine otherwise. Workers executing a pair task
// therefore never block waiting for pool capacity when the pair fans out
// its direction scans — nested fan-out cannot deadlock, and the pool degrades
// to sequential execution under saturation (or after Close) instead of
// queueing.
func (e *Engine) run(tasks ...func()) {
	tel := engineTel.Get()
	fl := flight.Active()
	var wg sync.WaitGroup
	for _, t := range tasks {
		t := t
		wg.Add(1)
		if tel == nil {
			// Disabled-telemetry fast path: byte-for-byte the allocation
			// profile of the uninstrumented pool (one wrapper closure per
			// pooled handoff, nothing else).
			if !e.submit(func() { defer wg.Done(); t() }) {
				t()
				wg.Done()
			}
			continue
		}
		tel.tasks.Inc()
		// Count the task as queued before the handoff attempt: a worker may
		// start (and finish) it before submit even returns. A new depth
		// peak is a flight event: "the pool was at its most backed up
		// here" is exactly what a latency post-mortem wants on its
		// timeline. (fl is the handle cached before this loop.)
		if tel.peak.RaiseTo(tel.depth.Add(1)) && fl != nil {
			fl.Emit(flight.Event{T: e.simNow(), Kind: flight.KindQueueHighwater,
				A: -1, B: -1, V1: tel.peak.Value()})
		}
		if e.submit(func() {
			defer wg.Done()
			start := time.Now()
			t()
			tel.taskSec.Observe(time.Since(start).Seconds())
			tel.depth.Add(-1)
		}) {
			continue
		}
		tel.depth.Add(-1) // never reached a worker
		tel.inline.Inc()
		start := time.Now()
		t()
		tel.taskSec.Observe(time.Since(start).Seconds())
		wg.Done()
	}
	wg.Wait()
}

// Result is one resolved pair of a batch. A and B index the trajectory
// slice the batch was admitted with; Est is the resolved estimate
// (Est.Distance > 0 means B is ahead of A). OK is false when no SYN point
// passed the coherency threshold, the pair's indexes were out of range, or
// a staleness policy expired the pair's context. Stale flags results
// resolved from degraded (aged but not yet expired) context — see
// core.Staleness.
type Result struct {
	A, B  int
	Est   core.Estimate
	OK    bool
	Stale bool
	// Shed flags a pair whose deadline expired before its resolution
	// started (at admission, or — with SetClock installed — at task
	// start): the work was dropped unrun, OK is false, and the caller
	// should signal backpressure rather than treat the pair as
	// unresolvable. Pairs that started resolving always run to
	// completion; deadlines shed queued work, they do not cancel running
	// work.
	Shed bool
	// LatencySec is this pair's wall-clock resolve time (searcher build
	// through aggregation, queue wait excluded). Measured only when
	// telemetry is enabled or the pair is causally traced; 0 otherwise —
	// the disabled fast path never reads the clock.
	LatencySec float64
}

// Batch is a set of trajectories admitted for resolution: every trajectory
// was snapshotted exactly once when Admit ran. Resolution reads only the
// snapshots, so once Admit has returned, the live trajectories may keep
// appending marks while the batch resolves.
type Batch struct {
	e     *Engine
	snaps []*trajectory.Aware
}

// Admit is the copy-on-read admission boundary: it snapshots every
// trajectory once, on the calling goroutine. A trajectory that is already
// a snapshot (the resolution service hands over its cached per-vehicle
// snapshots) is admitted as it is, with its memoized row statistics. The
// caller must own the trajectories for the duration of the call — admit
// at a quiescent point (a tick boundary, or the vehicle goroutine handing
// its own trajectory over); Admit returning is the synchronization point
// after which appends may resume concurrently with the batch's
// resolution. Admission is the simulation's stand-in for the paper's
// context exchange, so it records an "exchange" span (Arg = trajectories
// admitted). Returns ErrClosed after Close.
func (e *Engine) Admit(trajs ...*trajectory.Aware) (*Batch, error) {
	if e.isClosed() {
		return nil, ErrClosed
	}
	rec := obs.ActiveRecorder()
	sp := rec.Start(rec.NewTrace(), "exchange")
	sp.Arg = int64(len(trajs))
	defer sp.End()
	b := &Batch{e: e, snaps: make([]*trajectory.Aware, len(trajs))}
	for i, t := range trajs {
		b.snaps[i] = t.Snapshot()
	}
	return b, nil
}

// Len reports how many trajectories the batch admitted.
func (b *Batch) Len() int { return len(b.snaps) }

// ResolvePairsAt resolves the given pairs under a staleness policy at sim
// time now — the graceful-degradation entry point for lossy-link callers.
// A pair's age is the older of its two contexts' ages (a resolution is
// only as current as its weaker side):
//
//   - expired pairs are not resolved at all: OK == false, no panic, no
//     silently wrong d_r from fossil context — and the pair's warm-start
//     tracker is evicted, so the next resolve after re-contact scans cold;
//   - stale pairs resolve normally but carry Stale == true;
//   - fresh pairs resolve normally.
//
// Unlike ResolvePairs (the cold oracle), this entry point warm-starts
// every pair from the engine's per-pair tracker cache: steady-state
// re-resolves pivot their exact scans on the previous tick's SYN offsets,
// which only reorders evaluation, so results stay identical to the cold
// path's — with a zero-value (disabled) policy this
// returns exactly what ResolvePairs would, just faster on repeat contact.
func (b *Batch) ResolvePairsAt(pairs [][2]int, p core.Params, now float64, pol core.Staleness) []Result {
	return b.resolve(pairs, p, batchReq{warm: true, now: now, pol: pol})
}

// ResolvePairsDeadlineAt is ResolvePairsAt with per-pair deadlines —
// the load-shedding entry point for service callers. deadlines is aligned
// with pairs; entry dl > 0 is the absolute time (same domain as now) by
// which pair pi's resolution must have *started*, and 0 means no deadline.
// A pair already past its deadline at admission is shed before any
// scheduling (Result.Shed, OK false); with SetClock installed, the
// deadline is rechecked when a worker picks the task up, so work that
// expired while queued behind a backlog is shed instead of run — expired
// answers nobody is waiting for anymore never displace live ones.
// Misaligned deadlines cannot be attributed and are ignored entirely.
func (b *Batch) ResolvePairsDeadlineAt(pairs [][2]int, deadlines []float64, p core.Params, now float64, pol core.Staleness) []Result {
	return b.resolve(pairs, p, batchReq{warm: true, now: now, pol: pol, dls: deadlines})
}

// ResolvePairsTracedAt is ResolvePairsAt with causal stitching: refs is
// aligned with pairs, each entry the cross-vehicle trace ref of the
// context admission that produced the pair's snapshot (typically
// v2v.Session.TraceRef). A traced pair's queue wait and resolve pipeline
// record as children of the sender-side sync spans, so one trace tells
// the pair's whole story across both vehicles. Zero refs (and a nil
// slice) resolve exactly like ResolvePairsAt.
func (b *Batch) ResolvePairsTracedAt(pairs [][2]int, refs []obs.TraceRef, p core.Params, now float64, pol core.Staleness) []Result {
	return b.resolve(pairs, p, batchReq{warm: true, now: now, pol: pol, refs: refs})
}

// ResolvePairs resolves the given pairs (indexes into the admitted slice)
// and returns results in input order. Pairs with out-of-range indexes
// yield OK == false rather than a panic. This is the cold-scan oracle: no
// warm-start state is consulted or updated and no staleness policy
// applies.
func (b *Batch) ResolvePairs(pairs [][2]int, p core.Params) []Result {
	return b.resolve(pairs, p, batchReq{})
}

// batchReq is what distinguishes the resolve entry points. warm turns on
// the engine's per-pair state: the tracker generation, warm-start
// trackers, the staleness policy pol and the flight-event clock now. refs
// and dls, when aligned with pairs, carry each pair's trace ref and start
// deadline; misaligned slices cannot be attributed and are ignored.
type batchReq struct {
	warm bool
	now  float64
	pol  core.Staleness
	refs []obs.TraceRef
	dls  []float64
}

// resolve is the one resolve pipeline. A single pass over the pairs
// bounds-checks each, sheds it if its deadline passed before admission,
// attaches its warm-start tracker, classifies its staleness, and schedules
// a task for every survivor; the tasks then fan out over the pool. Each
// task writes only its own result slot, and each tracker is owned by one
// task, so the fan-out needs no extra locking.
func (b *Batch) resolve(pairs [][2]int, p core.Params, req batchReq) []Result {
	tel := engineTel.Get()
	rec := obs.ActiveRecorder()
	fl := flight.Active()
	now, pol := req.now, req.pol
	if len(req.refs) != len(pairs) {
		req.refs = nil
	}
	if len(req.dls) != len(pairs) {
		req.dls = nil
	}
	var start time.Time
	if tel != nil {
		tel.batches.Inc()
		start = time.Now()
	}
	// Each tracker must be owned by exactly one concurrent pair task, but
	// pairs is caller-controlled and may list the same pair twice — only
	// the first occurrence gets the tracker; repeats resolve cold, which
	// yields the identical result (the warm path is oracle-equivalent)
	// without racing on the shared hint state.
	var seen map[[2]int]bool
	if req.warm {
		b.e.nowBits.Store(math.Float64bits(now))
		b.e.beginTrackerGen(fl, now)
		seen = make(map[[2]int]bool, len(pairs))
	}
	clock := b.e.clockNow
	out := make([]Result, len(pairs))
	tasks := make([]func(), 0, len(pairs))
	for pi, pr := range pairs {
		out[pi] = Result{A: pr[0], B: pr[1]}
		if pr[0] < 0 || pr[0] >= len(b.snaps) || pr[1] < 0 || pr[1] >= len(b.snaps) {
			continue
		}
		var dl float64
		if req.dls != nil {
			dl = req.dls[pi]
		}
		if dl > 0 && now > dl {
			// Dead on arrival: the caller's deadline passed before this
			// batch was even admitted. Shed before classification or
			// scheduling — no tracker touch, no staleness transition.
			out[pi].Shed = true
			if tel != nil {
				tel.pairsShed.Inc()
			}
			if fl != nil {
				fl.Emit(flight.Event{T: now, Kind: flight.KindShed,
					A: int32(pr[0]), B: int32(pr[1]),
					V1: int64((now - dl) * 1000)})
			}
			continue
		}
		var tk *core.Tracker
		if req.warm && !seen[pr] {
			seen[pr] = true
			tk = b.e.tracker(pr)
		}
		stale := false
		if pol.Enabled() {
			switch b.classify(pr, pol, now, fl) {
			case core.ExpiredContext:
				if tel != nil {
					tel.pairsExpired.Inc()
				}
				if tk != nil {
					b.e.dropTracker(pr, fl, now)
				}
				continue
			case core.StaleContext:
				if tel != nil {
					tel.pairsStale.Inc()
				}
				stale = true
			}
		}
		var ref obs.TraceRef
		if req.refs != nil {
			ref = req.refs[pi]
		}
		// The queue span opens at scheduling and closes when a worker (or
		// the inline fallback) picks the task up: its duration is the
		// pair's queue wait, the critical-path component no per-stage span
		// could otherwise see. Inert when the pair is unstitched; the task
		// reads the clock only when telemetry is on or the pair is traced.
		var qsp obs.Span
		if ref.Trace != 0 {
			qsp = rec.StartChild(ref.Trace, ref.Parent, "queue")
			qsp.Arg = int64(pr[0])<<32 | int64(pr[1])
		}
		timed := tel != nil || ref.Trace != 0
		tasks = append(tasks, func() {
			qsp.End()
			// Task-start deadline recheck: queued work whose deadline
			// passed while it waited is dropped unrun.
			if dl > 0 && clock != nil {
				if late := clock() - dl; late > 0 {
					out[pi].Shed = true
					if tel != nil {
						tel.pairsShed.Inc()
					}
					if fl != nil {
						fl.Emit(flight.Event{T: now, Kind: flight.KindShed,
							A: int32(pr[0]), B: int32(pr[1]),
							V1: int64(late * 1000), V2: 1})
					}
					return
				}
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			s := core.NewSearcher(b.snaps[pr[0]], b.snaps[pr[1]], p)
			if tk != nil {
				s.SetTracker(tk)
			}
			s.SetTrace(ref)
			if fl != nil {
				s.SetFlight(fl, pr[0], pr[1], now)
			}
			out[pi].Est, out[pi].OK = s.Resolve(b.e.run)
			s.Release()
			out[pi].Stale = stale
			if timed {
				lat := time.Since(t0).Seconds()
				out[pi].LatencySec = lat
				if tel != nil {
					tel.pairSec.Observe(lat)
				}
			}
		})
	}
	b.e.run(tasks...)
	if tel != nil {
		tel.batchSec.Observe(time.Since(start).Seconds())
	}
	return out
}

// classify returns a pair's staleness class under pol at now. A pair's
// age is the older of its two contexts' ages. Class transitions are
// flight events, and crossing into expiry also dumps a refused-pair
// anomaly capsule.
func (b *Batch) classify(pr [2]int, pol core.Staleness, now float64, fl *flight.Ring) core.Freshness {
	age := core.ContextAge(b.snaps[pr[0]], now)
	if ab := core.ContextAge(b.snaps[pr[1]], now); ab > age {
		age = ab
	}
	cls := pol.Classify(age)
	if fl == nil {
		return cls
	}
	if prev := b.e.noteClass(pr, cls); prev != cls {
		fl.Emit(flight.Event{T: now, Kind: flight.KindStaleness,
			A: int32(pr[0]), B: int32(pr[1]),
			V1: int64(cls), V2: int64(prev)})
		if cls == core.ExpiredContext {
			// Crossing into expiry refuses the pair — one of the black-box
			// anomaly triggers. Emit the expiry detail, then dump
			// (best-effort; the capsule is advisory).
			fl.Emit(flight.Event{T: now, Kind: flight.KindExpired,
				A: int32(pr[0]), B: int32(pr[1]),
				V1: int64(age * 1000)})
			//lint:ignore errflow best-effort black-box dump; resolution must not fail because the disk did
			_, _ = fl.Anomaly("refused_pair", flight.Event{T: now,
				Kind: flight.KindRefused,
				A:    int32(pr[0]), B: int32(pr[1]),
				V1: int64(age * 1000)})
		}
	}
	return cls
}

// ResolveAll admits the platoon and resolves every unordered pair (i < j)
// in pair-enumeration order through the cold oracle — the one-call form
// for callers already at a quiescent point. Returns ErrClosed after Close.
func (e *Engine) ResolveAll(trajs []*trajectory.Aware, p core.Params) ([]Result, error) {
	b, err := e.Admit(trajs...)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]int, 0, len(trajs)*(len(trajs)-1)/2)
	for i := range trajs {
		for j := i + 1; j < len(trajs); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return b.ResolvePairs(pairs, p), nil
}
