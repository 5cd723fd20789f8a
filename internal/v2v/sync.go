package v2v

import (
	"rups/internal/link"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
)

// Reliable trajectory sync over a lossy DSRC channel.
//
// A Session streams one vehicle's GSM-aware trajectory to one peer over a
// pair of link.Channels (data one way, cumulative-ack beacons the other),
// surviving the link's drops, bursts, reordering, duplication, and
// corruption. The design is go-back-N over mark indexes:
//
//   - The sequence space is the mark index itself: a chunk carries marks
//     [FromMark, FromMark+n), and the receiver acks the length of its
//     contiguous prefix. There is no separate packet numbering to keep
//     consistent with trajectory state.
//   - The sender keeps a window of unacked chunks and one retransmission
//     timer. On expiry it goes back to the cumulative ack and resends,
//     doubling the RTO up to a cap with deterministic jitter (Karn's rule:
//     retransmitted chunks never produce RTT samples).
//   - The receiver reassembles fragments per chunk (frames are
//     CRC-checked; corrupt ones are dropped and retransmission covers
//     them), applies chunks that extend its contiguous prefix, buffers
//     out-of-order chunks until the gap before them fills, and suppresses
//     duplicates. The engine therefore only ever sees contiguous,
//     bit-exact prefixes of the sender's trajectory.
//
// Time is the link's round clock (one round ≈ one WSM slot of PacketRTT
// seconds). Step is synchronous and single-threaded: the simulation drives
// both endpoints of a session from one goroutine, which keeps lossy runs
// deterministic per link seed.

// SyncConfig tunes the reliable sync protocol. Zero values take defaults.
type SyncConfig struct {
	// ChunkMarks is the number of marks per chunk (default 8). A
	// 194-channel mark is ~1.6 KB on the wire, so chunks span several
	// WSM fragments regardless; larger chunks amortize headers, smaller
	// ones localize loss.
	ChunkMarks int
	// Window is the maximum number of unacked chunks in flight
	// (default 8).
	Window int
	// RTORounds is the initial retransmission timeout in rounds
	// (default 8 ≈ 32 ms).
	RTORounds int
	// MaxRTORounds caps the exponential backoff (default 128 ≈ 0.5 s).
	MaxRTORounds int
	// Seed drives the deterministic retransmission jitter.
	Seed uint64
	// Epoch identifies this sender incarnation for the restart handshake:
	// a sender that restarts with fresh sequence state MUST announce a new
	// (distinct) epoch, or the peer's cumulative ack — which points past
	// marks the new sender never transmitted — wedges the go-back-N window
	// forever. Nonzero epochs ride a 4-byte frame extension and make the
	// receiver resync from mark 0 on change; epoch 0 emits the legacy
	// extension-free wire format. See Receiver.
	Epoch uint32
}

// DefaultSyncConfig returns the protocol defaults.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{ChunkMarks: 8, Window: 8, RTORounds: 8, MaxRTORounds: 128}
}

func (c SyncConfig) withDefaults() SyncConfig {
	d := DefaultSyncConfig()
	if c.ChunkMarks <= 0 {
		c.ChunkMarks = d.ChunkMarks
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.RTORounds <= 0 {
		c.RTORounds = d.RTORounds
	}
	if c.MaxRTORounds <= 0 {
		c.MaxRTORounds = d.MaxRTORounds
	}
	if c.MaxRTORounds < c.RTORounds {
		c.MaxRTORounds = c.RTORounds
	}
	return c
}

// sentChunk is one unacked chunk in the sender's window.
type sentChunk struct {
	from, n int
	round   int  // round of this transmission (for RTT sampling)
	resent  bool // Karn's rule: no RTT sample from retransmissions
}

// fragBuf reassembles one chunk from its DATA frames.
type fragBuf struct {
	nMarks, chans, nFrags, total int
	have                         []bool
	got                          int
	buf                          []byte
	// ref is the causal-trace hook carried by this chunk's fragments. A
	// retransmission may re-stamp it (each transmission has its own parent
	// span); the latest nonzero one wins.
	ref obs.TraceRef
}

// heldChunk is an out-of-order chunk buffered until its gap fills,
// together with the trace ref it arrived under.
type heldChunk struct {
	d   Delta
	ref obs.TraceRef
}

// Session is one direction of a reliable trajectory sync: it streams src
// to a peer copy over data (chunks out) and ack (beacons back). Both
// protocol endpoints live in the one value — the sender side reads src and
// the ack channel, the receiver side writes the copy and the data channel —
// because the simulation steps both ends in lockstep. Not safe for
// concurrent use.
type Session struct {
	cfg  SyncConfig
	src  *trajectory.Aware
	data *link.Channel
	ack  *link.Channel

	// Sender state.
	visible     int // marks of src completed by "now" and eligible to send
	base        int // cumulative ack: peer holds marks [0, base)
	next        int // next mark index to transmit
	highWater   int // highest mark index ever transmitted
	window      []sentChunk
	rto         int
	deadline    int    // round the retransmit timer fires; -1 disarmed
	arms        uint64 // timer armings, the jitter address
	timeoutRuns uint64

	// rx is the receive half — reassembly, ordering, epoch resync — shared
	// with transports beyond the simulated link (see Receiver).
	rx *Receiver

	// Telemetry, cached once at session build per the obs handle
	// discipline (a Session steps every round; per-round lookups would be
	// flagged by rups-lint and cost atomics for nothing).
	rec   *obs.Recorder
	trace obs.TraceID // sender-side trace all chunk sends stitch into
	fl    *flight.Ring
	labA  int32 // flight/event labels: src vehicle → copy vehicle
	labB  int32
	nowT  float64 // sim time of the current Step, for flight events
}

// NewSession builds a session streaming src over the given channels. The
// peer copy starts empty with src's channel width.
func NewSession(src *trajectory.Aware, data, ack *link.Channel, cfg SyncConfig) *Session {
	rec := obs.ActiveRecorder()
	return &Session{
		cfg:      cfg.withDefaults(),
		src:      src,
		data:     data,
		ack:      ack,
		rto:      cfg.withDefaults().RTORounds,
		deadline: -1,
		rx:       NewReceiver(src.Width()),
		rec:      rec,
		trace:    rec.NewTrace(), // 0 (untraced wire) when tracing is off
		fl:       flight.Active(),
		labA:     -1,
		labB:     -1,
	}
}

// SetPeers labels the session's flight events with the sender and
// receiver vehicle ids (they default to -1, "unknown").
func (s *Session) SetPeers(src, dst int) {
	s.labA, s.labB = int32(src), int32(dst)
}

// TraceRef returns the causal hook of the newest applied chunk — the
// cross-vehicle trace a resolve consuming this copy should stitch into.
// Zero while no traced chunk has been applied.
func (s *Session) TraceRef() obs.TraceRef { return s.rx.TraceRef() }

// Copy returns the receiver's reconstruction: always a contiguous,
// bit-exact prefix of src. The engine admits this, never src directly.
func (s *Session) Copy() *trajectory.Aware { return s.rx.Copy() }

// Lag returns how many sendable marks the peer copy is missing.
func (s *Session) Lag() int { return s.visible - s.rx.Copy().Len() }

// Quiescent reports whether the session has nothing left to do for the
// current visibility horizon: everything sent, acked, applied, and no
// frames in flight. The simulation uses it to stop burning rounds early on
// a clean link.
func (s *Session) Quiescent() bool {
	return s.next >= s.visible && s.base >= s.visible &&
		len(s.window) == 0 && s.rx.Idle() &&
		!s.rx.AckDue() && s.data.Pending() == 0 && s.ack.Pending() == 0
}

// Step runs one protocol round at sim time now: both endpoints receive,
// the receiver acks, the sender times out and (re)fills its window.
func (s *Session) Step(round int, now float64) {
	s.nowT = now
	s.receiveData(round)
	s.receiveAcks(round)
	s.maybeTimeout(round)
	s.fillWindow(round, now)
	s.flushAck(round)
}

// receiveData drains the data channel into the receive half: validation,
// reassembly, ordering, and epoch resync all live in Receiver.Offer.
func (s *Session) receiveData(round int) {
	for _, raw := range s.data.Receive(round) {
		s.rx.Offer(raw)
	}
}

// receiveAcks drains the ack channel and advances the sender's window.
func (s *Session) receiveAcks(round int) {
	tel := syncTel.Get()
	for _, raw := range s.ack.Receive(round) {
		fr, err := parseFrame(raw)
		if err != nil || fr.typ != frameAck {
			if tel != nil {
				tel.rejected.Inc()
			}
			continue
		}
		if fr.epoch != s.cfg.Epoch {
			// A beacon from another sender incarnation: the peer acked
			// marks a pre-restart session transmitted, not ours. Acting on
			// it would confirm marks this sender never sent.
			continue
		}
		if fr.cum <= s.base {
			continue // stale or duplicate beacon
		}
		s.base = fr.cum
		if s.next < s.base {
			// A timeout rolled next back, then a late ack overtook it:
			// never resend what the peer confirmed.
			s.next = s.base
		}
		for len(s.window) > 0 && s.window[0].from+s.window[0].n <= s.base {
			ch := s.window[0]
			s.window = s.window[1:]
			if !ch.resent && tel != nil {
				tel.ackRTT.Observe(float64(round-ch.round) * PacketRTT)
			}
		}
		if len(s.window) == 0 && s.next >= s.highWater {
			// Everything outstanding confirmed: disarm and reset backoff.
			s.deadline = -1
			s.rto = s.cfg.RTORounds
		} else {
			s.arm(round)
		}
	}
}

// maybeTimeout fires the retransmission timer: go back to the cumulative
// ack and back off the RTO.
func (s *Session) maybeTimeout(round int) {
	if s.deadline < 0 || round < s.deadline || len(s.window) == 0 {
		return
	}
	if t := syncTel.Get(); t != nil {
		t.timeouts.Inc()
	}
	s.timeoutRuns++
	s.next = s.base
	s.window = s.window[:0]
	atCap := s.rto >= s.cfg.MaxRTORounds
	s.rto *= 2
	if s.rto > s.cfg.MaxRTORounds {
		s.rto = s.cfg.MaxRTORounds
	}
	if s.fl != nil {
		s.fl.Emit(flight.Event{T: s.nowT, Kind: flight.KindRetransmit,
			A: s.labA, B: s.labB, V1: int64(s.base), V2: int64(s.timeoutRuns)})
		s.fl.Emit(flight.Event{T: s.nowT, Kind: flight.KindRTOBackoff,
			A: s.labA, B: s.labB, V1: int64(s.rto), V2: int64(s.cfg.MaxRTORounds)})
		if !atCap && s.rto >= s.cfg.MaxRTORounds {
			// The backoff just saturated: this is a retransmit burst, one
			// of the black-box anomaly triggers. The dump is best-effort —
			// the protocol must not fail because the disk did.
			//lint:ignore errflow best-effort black-box dump; the capsule is advisory and the cooldown already bounds retries
			_, _ = s.fl.Anomaly("retransmit_burst", flight.Event{T: s.nowT,
				Kind: flight.KindRTOBackoff, A: s.labA, B: s.labB,
				V1: int64(s.rto), V2: int64(s.timeoutRuns)})
		}
	}
	s.deadline = -1 // fillWindow re-arms with the backed-off RTO
}

// arm (re)starts the retransmission timer with deterministic jitter of up
// to a quarter RTO, desynchronizing the convoy's many sessions.
func (s *Session) arm(round int) {
	s.arms++
	j := int(noise.Uniform(s.cfg.Seed, 0xAC4, s.arms) * float64(s.rto) / 4)
	s.deadline = round + s.rto + j
}

// fillWindow advances the visibility horizon to now and transmits chunks
// until the window is full or nothing sendable remains.
func (s *Session) fillWindow(round int, now float64) {
	tel := syncTel.Get()
	for s.visible < s.src.Len() && s.src.Geo.Marks[s.visible].T <= now {
		s.visible++
	}
	for s.next < s.visible && len(s.window) < s.cfg.Window {
		n := s.cfg.ChunkMarks
		if s.next+n > s.visible {
			n = s.visible - s.next
		}
		d := Delta{FromMark: s.next, Marks: s.src.Geo.Marks[s.next : s.next+n]}
		d.Power = make([][]float64, s.src.Width())
		for ch := range d.Power {
			d.Power[ch] = s.src.RowCopy(ch, s.next, s.next+n)
		}
		resent := s.next < s.highWater
		// Each transmission gets its own span on the session's trace; its
		// ID rides in every fragment so the receiver's reassemble/admit
		// spans — in another vehicle's pipeline — hang under it. With
		// tracing off, s.trace is 0, the span is inert, and DataFrames
		// emits the untraced wire format.
		name := "chunk_send"
		if resent {
			name = "chunk_resend"
		}
		sp := s.rec.Start(s.trace, name)
		sp.Arg = int64(s.next)
		for _, f := range DataFrames(d, obs.TraceRef{Trace: s.trace, Parent: sp.ID()}, s.cfg.Epoch) {
			// Send cannot fail: DataFrames fragments to the WSM bound.
			if err := s.data.Send(round, f); err != nil {
				panic(err)
			}
		}
		sp.End()
		if tel != nil {
			if resent {
				tel.chunksResent.Inc()
			} else {
				tel.chunksSent.Inc()
			}
		}
		s.window = append(s.window, sentChunk{from: s.next, n: n, round: round, resent: resent})
		s.next += n
		if s.next > s.highWater {
			s.highWater = s.next
		}
		if s.deadline < 0 {
			s.arm(round)
		}
	}
}

// flushAck emits at most one cumulative-ack beacon per round.
func (s *Session) flushAck(round int) {
	if !s.rx.TakeAckDue() {
		return
	}
	if err := s.ack.Send(round, s.rx.AckBytes()); err != nil {
		panic(err)
	}
	if t := syncTel.Get(); t != nil {
		t.acksSent.Inc()
	}
}

// ObserveCopyAge records how stale the peer copy is at sim time now — the
// degradation signal the engine's staleness policy acts on. Empty copies
// are not observed (they are unresolved, not stale).
func (s *Session) ObserveCopyAge(now float64) {
	cp := s.rx.Copy()
	if cp.Len() == 0 {
		return
	}
	if t := syncTel.Get(); t != nil {
		_, t1 := cp.TimeSpan()
		age := now - t1
		if age < 0 {
			age = 0
		}
		t.copyAge.Observe(age)
	}
}
