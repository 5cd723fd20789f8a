// Package serve is the long-running resolution service: vehicles stream
// trajectory deltas over TCP using the v2v frame codec, and clients issue
// d_r pair queries answered from per-vehicle reconstructions through the
// resolution engine.
//
// The package's design center is graceful degradation under overload
// (ROADMAP: robustness). Every resource is bounded and every bound, when
// hit, produces an explicit, observable refusal instead of a silent drop,
// an unbounded queue, or a dead connection:
//
//   - connections past the cap are refused with REFUSE(conn_limit);
//   - queries past the admission queue or per-connection bound are
//     refused with REFUSE(queue_full) and a retry-after hint;
//   - queries past the per-client rate limit are refused with
//     REFUSE(rate);
//   - admitted queries whose deadline expires before a worker starts
//     them are shed by the engine and answered StatusShed;
//   - resident per-vehicle state past the memory budget is evicted LRU-
//     first (the owning connection is kicked so the client resyncs under
//     a fresh epoch), and contexts older than the staleness policy's
//     expiry bound are swept regardless of pressure;
//   - clients that stop reading are disconnected when their outbox
//     fills, rather than wedging a writer goroutine;
//   - on Shutdown the server stops accepting, refuses new work with
//     REFUSE(draining), answers everything already admitted, flushes
//     outboxes, and only then tears down.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs/flight"
	"rups/internal/obs/slo"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// Config parameterizes a Server. The zero value of every bound gets a
// conservative default from New; a negative bound disables it where noted.
type Config struct {
	// Addr is the TCP listen address (":0" for an ephemeral test port).
	Addr string
	// Clock is the server's time source; nil means WallClock.
	Clock Clock
	// Workers sizes the resolution engine's worker pool (0 = GOMAXPROCS,
	// per engine.New).
	Workers int
	// Params are the resolution parameters applied to every query.
	Params core.Params
	// Staleness grades and expires context by age; its expiry bound also
	// drives the resident-table sweep. Zero disables both rungs.
	Staleness core.Staleness

	// MaxConns caps concurrent connections (default 1024).
	MaxConns int
	// QueueCap bounds the admission queue (default 256).
	QueueCap int
	// PerConnQueries bounds one connection's outstanding queries
	// (default 64).
	PerConnQueries int
	// RatePerSec is the per-connection sustained query rate; 0 disables
	// rate limiting. RateBurst is the token-bucket depth (default 2×rate,
	// minimum 1) — only read when RatePerSec > 0.
	RatePerSec float64
	RateBurst  int
	// MemBudgetBytes caps resident per-vehicle trajectory state; 0
	// disables the budget (expiry sweeps still run).
	MemBudgetBytes int64
	// OutboxCap bounds one connection's pending outbound messages; a
	// client that lets it fill is disconnected as a slow reader
	// (default 256).
	OutboxCap int
	// SweepEverySec is the staleness-sweep period (default 5).
	SweepEverySec float64
	// RetryAfterSec is the retry hint carried by queue-full and draining
	// refusals (default 0.5).
	RetryAfterSec float64

	// SLO, when set, receives per-query observations for the
	// resolve_latency, context_freshness, and pair_availability
	// objectives (absent objectives are skipped).
	SLO *slo.Tracker
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.QueueCap == 0 {
		c.QueueCap = 256
	}
	if c.PerConnQueries == 0 {
		c.PerConnQueries = 64
	}
	if c.OutboxCap == 0 {
		c.OutboxCap = 256
	}
	if c.SweepEverySec <= 0 {
		c.SweepEverySec = 5
	}
	if c.RetryAfterSec <= 0 {
		c.RetryAfterSec = 0.5
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RatePerSec)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

// query is one admitted pair query waiting for the resolver.
type query struct {
	qid      uint32
	a, b     uint32
	deadline float64 // absolute server-clock deadline; 0 = none
	admitted float64
	c        *conn
}

// Server is the resolution service. Construct with New, start with Start,
// stop with Shutdown.
type Server struct {
	cfg   Config
	clock Clock
	eng   *engine.Engine
	tab   *vtable
	ln    net.Listener

	// qmu guards the admission gate: admitters hold the read lock across
	// the draining check and the channel send, so Shutdown's write-locked
	// {draining = true; close(queries)} can never close the channel under
	// a sender (the engine's safe-close pattern).
	qmu      sync.RWMutex
	draining bool
	queries  chan *query

	cmu   sync.Mutex
	conns map[*conn]struct{}

	resolverDone chan struct{}
	sweepDone    chan struct{}
	stop         chan struct{}
	acceptWG     sync.WaitGroup
	connWG       sync.WaitGroup
	shutOnce     sync.Once

	// SLO objective indices, resolved once at construction (-1 = absent).
	sloLat, sloFresh, sloAvail int
}

// New builds a Server from cfg. Call Start to begin listening.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		clock:        cfg.Clock,
		eng:          engine.New(cfg.Workers),
		tab:          newVTable(cfg.MemBudgetBytes, cfg.Staleness),
		queries:      make(chan *query, cfg.QueueCap),
		conns:        make(map[*conn]struct{}),
		resolverDone: make(chan struct{}),
		sweepDone:    make(chan struct{}),
		stop:         make(chan struct{}),
		sloLat:       -1, sloFresh: -1, sloAvail: -1,
	}
	// Task-start deadline rechecks shed work that expired while queued.
	s.eng.SetClock(s.clock.Now)
	if cfg.SLO != nil {
		s.sloLat = cfg.SLO.Index("resolve_latency")
		s.sloFresh = cfg.SLO.Index("context_freshness")
		s.sloAvail = cfg.SLO.Index("pair_availability")
	}
	return s
}

// Start listens on cfg.Addr and launches the accept, resolver, and sweep
// goroutines. It returns once the listener is live; Addr reports the
// bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	go s.resolveLoop()
	go s.sweepLoop()
	return nil
}

// Addr returns the listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.admitConn(nc)
	}
}

// admitConn enforces the connection cap; refused connections get an
// explicit conn-level REFUSE before the close so the client can back off
// rather than hammer reconnects.
func (s *Server) admitConn(nc net.Conn) {
	tel := stel()
	s.cmu.Lock()
	if len(s.conns) >= s.cfg.MaxConns {
		s.cmu.Unlock()
		tel.refused.Inc()
		tel.refusedConns.Inc()
		//lint:ignore errflow best-effort refusal on a doomed connection
		_ = writeMsg(nc, refuseFrame(0, RefuseConnLimit, s.cfg.RetryAfterSec))
		//lint:ignore errflow the connection is being refused; its close error changes nothing
		_ = nc.Close()
		return
	}
	c := &conn{
		s:      s,
		nc:     nc,
		outbox: make(chan []byte, s.cfg.OutboxCap),
		tokens: float64(s.cfg.RateBurst),
		last:   s.clock.Now(),
	}
	s.conns[c] = struct{}{}
	s.cmu.Unlock()
	tel.connsTotal.Inc()
	tel.connsActive.Add(1)
	s.connWG.Add(2)
	go c.writeLoop()
	go c.readLoop()
}

// admitQuery runs the bounded admission gate for one parsed query.
func (s *Server) admitQuery(q *query) {
	tel := stel()
	tel.queries.Inc()
	if q.c.outstanding.Load() >= int64(s.cfg.PerConnQueries) {
		s.refuse(q.c, q.qid, RefuseQueueFull)
		return
	}
	s.qmu.RLock()
	if s.draining {
		s.qmu.RUnlock()
		s.refuse(q.c, q.qid, RefuseDraining)
		return
	}
	select {
	// Every send holds qmu.RLock and checks draining; drain sets draining
	// and closes under qmu.Lock, so no send can follow the close
	// (TestAdmitRacesDrainSeal).
	case s.queries <- q:
		q.c.outstanding.Add(1)
		tel.queueDepth.Set(int64(len(s.queries)))
		s.qmu.RUnlock()
	default:
		s.qmu.RUnlock()
		s.refuse(q.c, q.qid, RefuseQueueFull)
	}
}

func (s *Server) refuse(c *conn, qid uint32, reason byte) {
	tel := stel()
	tel.refused.Inc()
	retry := s.cfg.RetryAfterSec
	switch reason {
	case RefuseQueueFull:
		tel.refusedQueue.Inc()
	case RefuseRate:
		tel.refusedRate.Inc()
		if s.cfg.RatePerSec > 0 {
			retry = 1 / s.cfg.RatePerSec
		}
	case RefuseDraining:
		tel.refusedDrain.Inc()
	}
	c.send(refuseFrame(qid, reason, retry))
}

// resolveLoop drains the admission queue, collecting opportunistic
// batches so one engine admission covers several queries. It exits only
// when Shutdown has closed the queue AND every already-admitted query has
// been answered — that is the "flush in-flight work" half of the drain
// guarantee.
func (s *Server) resolveLoop() {
	defer close(s.resolverDone)
	tel := stel()
	for q := range s.queries {
		batch := []*query{q}
	collect:
		for len(batch) < 64 {
			select {
			case q2, ok := <-s.queries:
				if !ok {
					break collect
				}
				batch = append(batch, q2)
			default:
				break collect
			}
		}
		tel.queueDepth.Set(int64(len(s.queries)))
		s.resolveBatch(batch)
	}
}

func (s *Server) isDraining() bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return s.draining
}

// resolveBatch answers a batch of queries: snapshot each referenced
// vehicle once, admit the snapshots, and resolve all pairs through the
// deadline-aware engine entry point.
func (s *Server) resolveBatch(batch []*query) {
	tel := stel()
	now := s.clock.Now()
	var snaps []*trajectory.Aware
	snapIdx := make(map[uint32]int)
	snapshotOf := func(id uint32) int {
		if i, ok := snapIdx[id]; ok {
			return i
		}
		e := s.tab.get(id, now)
		if e == nil {
			snapIdx[id] = -1
			return -1
		}
		snaps = append(snaps, e.snapshot())
		snapIdx[id] = len(snaps) - 1
		return snapIdx[id]
	}
	var live []*query
	var pairs [][2]int
	var dls []float64
	for _, q := range batch {
		ia, ib := snapshotOf(q.a), snapshotOf(q.b)
		if ia < 0 || ib < 0 {
			s.finish(q, StatusUnknownVehicle, false, 0)
			continue
		}
		live = append(live, q)
		pairs = append(pairs, [2]int{ia, ib})
		dls = append(dls, q.deadline)
	}
	if len(live) == 0 {
		return
	}
	b, err := s.eng.Admit(snaps...)
	if err != nil {
		// Engine closed under us (hard stop, not a drain): answer rather
		// than leave clients waiting on qids forever.
		for _, q := range live {
			s.finish(q, StatusUnresolved, false, 0)
		}
		return
	}
	res := b.ResolvePairsDeadlineAt(pairs, dls, s.cfg.Params, now, s.cfg.Staleness)
	for i, r := range res {
		q := live[i]
		switch {
		case r.Shed:
			tel.shed.Inc()
			s.finish(q, StatusShed, false, 0)
		case !r.OK:
			s.finish(q, StatusUnresolved, r.Stale, 0)
		default:
			s.finish(q, StatusOK, r.Stale, r.Est.Distance)
		}
	}
}

// finish sends one query's answer and records the outcome across metrics
// and the SLO tracker.
func (s *Server) finish(q *query, status byte, stale bool, dist float64) {
	tel := stel()
	done := s.clock.Now()
	lat := done - q.admitted
	if lat < 0 {
		lat = 0
	}
	q.c.outstanding.Add(-1)
	q.c.send(resultFrame(q.qid, status, stale, dist, lat))
	tel.results.Inc()
	if s.isDraining() {
		// Admission refuses everything once the drain seals the queue, so
		// an answer given while draining is for a query admitted before
		// the seal — including the batch that was in flight at the seal.
		tel.drainedQueries.Inc()
	}
	tel.resolveSec.Observe(lat)
	if t := s.cfg.SLO; t != nil {
		if s.sloLat >= 0 {
			t.ObserveLatency(s.sloLat, lat, done)
		}
		if s.sloFresh >= 0 {
			t.Observe(s.sloFresh, status == StatusOK && !stale, done)
		}
		if s.sloAvail >= 0 {
			t.Observe(s.sloAvail, status == StatusOK, done)
		}
	}
}

// sweepLoop expires aged-out resident contexts on the clock's cadence.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	ch, stopTick := s.clock.Tick(s.cfg.SweepEverySec)
	defer stopTick()
	for {
		select {
		case <-ch:
			s.tab.sweepExpired(s.clock.Now())
		case <-s.stop:
			return
		}
	}
}

// DrainStats summarizes a completed graceful drain.
type DrainStats struct {
	// Flushed counts queries that were already admitted when the drain
	// began and were answered during it.
	Flushed uint64
	// ResidentVehicles/ResidentBytes snapshot the vehicle table at the
	// end of the drain.
	ResidentVehicles int
	ResidentBytes    int64
}

// Shutdown drains the server gracefully and blocks until done:
//
//  1. stop accepting connections;
//  2. flip the admission gate to draining — every new query is refused
//     with REFUSE(draining) — and seal the queue under the gate's write
//     lock, so no admitter can be mid-send;
//  3. notify every connection with a DRAIN frame;
//  4. wait for the resolver to answer everything already admitted;
//  5. flush and close every connection's outbox, wait for the
//     connection goroutines;
//  6. release the engine and the sweeper.
//
// Admitted work is never dropped: a query either gets its RESULT or the
// client saw the connection die — there is no silent third state.
// Shutdown is idempotent; concurrent calls block until the first
// completes.
func (s *Server) Shutdown() DrainStats {
	s.shutOnce.Do(s.drain)
	<-s.sweepDone
	tel := stel()
	veh, bytes := s.tab.stats()
	return DrainStats{
		Flushed:          tel.drainedQueries.Value(),
		ResidentVehicles: veh,
		ResidentBytes:    bytes,
	}
}

func (s *Server) drain() {
	tel := stel()
	tel.drains.Inc()
	now := s.clock.Now()
	if fl := flight.Active(); fl != nil {
		fl.Emit(flight.Event{T: now, Kind: flight.KindDrain, V1: 0})
	}
	if s.ln != nil {
		//lint:ignore errflow the drain proceeds regardless; the listener is discarded either way
		_ = s.ln.Close()
	}
	s.acceptWG.Wait()

	s.qmu.Lock()
	s.draining = true
	close(s.queries)
	s.qmu.Unlock()

	s.cmu.Lock()
	open := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.cmu.Unlock()
	for _, c := range open {
		c.send(drainFrame())
	}

	<-s.resolverDone
	for _, c := range open {
		c.closeSend()
	}
	s.connWG.Wait()
	close(s.stop)
	s.eng.Close()
	if fl := flight.Active(); fl != nil {
		fl.Emit(flight.Event{T: s.clock.Now(), Kind: flight.KindDrain, V1: 1})
	}
}

// conn is one client connection. The reader goroutine owns all inbound
// parsing and the rate limiter; the writer goroutine owns the socket's
// write side and is fed through a bounded outbox.
type conn struct {
	s  *Server
	nc net.Conn

	// omu serializes outbox sends with closeSend so the channel is never
	// closed under a sender.
	omu        sync.Mutex
	sendClosed bool
	outbox     chan []byte

	abortOnce sync.Once

	// Vehicle streaming state, set by HELLO (reader goroutine only).
	entry *vehicleEntry
	vid   uint32
	gen   uint64

	outstanding atomic.Int64

	// Token-bucket rate limiter; reader goroutine only.
	tokens float64
	last   float64
}

// send enqueues one outbound message without blocking. A full outbox
// means the client stopped reading: the connection is aborted as a slow
// reader — a deliberate disconnect beats an unbounded buffer or a wedged
// writer. Returns false if the message was not enqueued.
func (c *conn) send(b []byte) bool {
	c.omu.Lock()
	if c.sendClosed {
		c.omu.Unlock()
		return false
	}
	select {
	// Every send holds omu and checks sendClosed; closeSend sets it and
	// closes under omu, so no send can follow the close
	// (TestSendRacesCloseSend).
	case c.outbox <- b:
		c.omu.Unlock()
		return true
	default:
		c.omu.Unlock()
		stel().slowDisconnects.Inc()
		c.abort()
		return false
	}
}

// closeSend seals the outbox; the writer flushes what is buffered and
// closes the socket. Idempotent.
func (c *conn) closeSend() {
	c.omu.Lock()
	if !c.sendClosed {
		c.sendClosed = true
		close(c.outbox)
	}
	c.omu.Unlock()
}

// abort hard-closes the connection (slow reader, eviction kick). The
// socket close unblocks the reader; sealing the outbox unblocks the
// writer. Safe from any goroutine; must not take vtable.mu (it is the
// eviction kick hook).
func (c *conn) abort() {
	//lint:ignore errflow aborting a misbehaving connection is best-effort; the close error is uninteresting
	c.abortOnce.Do(func() { _ = c.nc.Close() })
	c.closeSend()
}

func (c *conn) writeLoop() {
	defer c.s.connWG.Done()
	bw := bufio.NewWriter(c.nc)
	var werr error
	for b := range c.outbox {
		if werr != nil {
			continue // drain remaining sends after a dead socket
		}
		if werr = writeMsg(bw, b); werr == nil && len(c.outbox) == 0 {
			werr = bw.Flush()
		}
		if werr != nil {
			c.abort()
		}
	}
	if werr == nil {
		//lint:ignore errflow final flush on a closing socket is best-effort
		_ = bw.Flush()
	}
	//lint:ignore errflow the writer owns the socket's teardown; its close error has no consumer
	_ = c.nc.Close()
}

func (c *conn) readLoop() {
	defer func() {
		c.abort()
		if c.entry != nil {
			c.s.tab.detach(c.vid, c.gen)
		}
		c.s.cmu.Lock()
		delete(c.s.conns, c)
		c.s.cmu.Unlock()
		stel().connsActive.Add(-1)
		c.s.connWG.Done()
	}()
	br := bufio.NewReader(c.nc)
	for {
		msg, err := readMsg(br)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && isFramingError(err) {
				stel().malformed.Inc()
			}
			return
		}
		switch {
		case v2v.IsFrame(msg):
			c.handleFrame(msg)
		case isCtrl(msg):
			c.handleCtrl(msg)
		default:
			stel().malformed.Inc()
		}
	}
}

// isFramingError distinguishes a protocol violation (oversized length
// prefix) from an ordinary disconnect mid-read.
func isFramingError(err error) bool {
	var fe *framingError
	return errors.As(err, &fe)
}

// handleFrame applies one v2v frame to the connection's vehicle. Frames
// before HELLO have no home and count as malformed.
func (c *conn) handleFrame(msg []byte) {
	tel := stel()
	if c.entry == nil {
		tel.malformed.Inc()
		return
	}
	e := c.entry
	e.mu.Lock()
	ok := e.rx.Offer(msg)
	var ack []byte
	if e.rx.TakeAckDue() {
		ack = e.rx.AckBytes()
	}
	e.mu.Unlock()
	if !ok {
		tel.malformed.Inc()
		return
	}
	c.s.tab.charge(e, c.s.clock.Now())
	if ack != nil {
		c.send(ack)
	}
}

func (c *conn) handleCtrl(msg []byte) {
	tel := stel()
	switch msg[2] {
	case ctrlHello:
		vid, _, width, err := parseHello(msg)
		if err != nil || c.entry != nil || width == 0 {
			tel.malformed.Inc()
			return
		}
		c.vid = vid
		c.entry, c.gen = c.s.tab.attach(vid, int(width), c.abort, c.s.clock.Now())
	case ctrlQuery:
		qid, a, b, dlRel, err := parseQuery(msg)
		if err != nil {
			tel.malformed.Inc()
			return
		}
		now := c.s.clock.Now()
		if !c.allow(now) {
			tel.queries.Inc()
			c.s.refuse(c, qid, RefuseRate)
			return
		}
		q := &query{qid: qid, a: a, b: b, admitted: now, c: c}
		if dlRel > 0 {
			q.deadline = now + dlRel
		}
		c.s.admitQuery(q)
	default:
		tel.malformed.Inc()
	}
}

// allow runs the per-connection token bucket; always true when rate
// limiting is disabled.
func (c *conn) allow(now float64) bool {
	if c.s.cfg.RatePerSec <= 0 {
		return true
	}
	c.tokens += (now - c.last) * c.s.cfg.RatePerSec
	c.last = now
	if max := float64(c.s.cfg.RateBurst); c.tokens > max {
		c.tokens = max
	}
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// framingError marks a length-prefix protocol violation.
type framingError struct{ n uint32 }

func (e *framingError) Error() string {
	return fmt.Sprintf("serve: message length %d outside (0, %d]", e.n, maxMsgLen)
}
