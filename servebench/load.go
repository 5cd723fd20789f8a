package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/serve"
)

// outcome is how one query ended, as the client saw it.
type outcome byte

const (
	oLost       outcome = iota // no answer before the phase's grace period ended
	oOK                        // RESULT, StatusOK
	oUnresolved                // RESULT, StatusUnresolved
	oShed                      // RESULT, StatusShed
	oUnknown                   // RESULT, StatusUnknownVehicle
	oRefused                   // REFUSE
)

// answered reports an outcome the user can act on: a distance, or a
// definite "no SYN point".
func (o outcome) answered() bool { return o == oOK || o == oUnresolved }

// query is one scheduled pair query and its fate.
type query struct {
	p     pair
	due   time.Time
	sent  time.Time
	recv  time.Time
	out   outcome
	stale bool
	dist  float64
	srvMS float64 // the RESULT frame's admission → answer latency

	// na, nb are the marks each vehicle had uploaded when the query was
	// sent (for ground truth); 0 when the context is static.
	na, nb int
}

// latencyMS is the query's open-loop latency, from its scheduled send to
// its answer; +Inf for any query that was not answered.
func (q *query) latencyMS() float64 {
	if !q.out.answered() {
		return math.Inf(1)
	}
	return msSince(q.due, q.recv)
}

type response struct {
	qid uint32
	at  time.Time
	msg serve.Msg
}

// queryConn is one query connection: senders run by loadGen.phase and a
// reader collecting responses.
type queryConn struct {
	c        *serve.Client
	mu       sync.Mutex
	resp     []response
	sent     atomic.Int64
	answered atomic.Int64
	done     chan struct{}
}

func dialQueryConn(addr string) (*queryConn, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	qc := &queryConn{c: c, done: make(chan struct{})}
	go func() {
		defer close(qc.done)
		for {
			m, err := c.ReadMsg()
			if err != nil {
				return
			}
			if m.Kind != serve.MsgResult && m.Kind != serve.MsgRefuse {
				continue
			}
			qc.mu.Lock()
			qc.resp = append(qc.resp, response{m.QID, time.Now(), m})
			qc.mu.Unlock()
			qc.answered.Add(1)
		}
	}()
	return qc, nil
}

func (qc *queryConn) close() {
	_ = qc.c.Close() // ends the reader; nothing consumes the error
	<-qc.done
}

func (qc *queryConn) take() []response {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	r := qc.resp
	qc.resp = nil
	return r
}

// loadGen is the open-loop query generator: every query has a due time
// fixed before the phase starts, and is sent then no matter how many
// earlier ones are still unanswered.
type loadGen struct {
	conns    []*queryConn
	deadline float64 // relative deadline carried by every query; 0 = none
	next     func(i int) pair
	snap     func(p pair) (na, nb int) // uploaded mark counts at send time
	qs       []*query                  // qid − 1 → query
}

// phase sends n queries at rate per second starting at start, spread
// round-robin over the connections, then waits up to grace for the
// answers. It returns the phase's queries.
func (g *loadGen) phase(rate float64, n int, start time.Time, grace time.Duration) []*query {
	first := len(g.qs)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		g.qs = append(g.qs, &query{p: g.next(len(g.qs)), due: due})
	}
	batch := g.qs[first:]
	var wg sync.WaitGroup
	for ci, qc := range g.conns {
		wg.Add(1)
		go func(ci int, qc *queryConn) {
			defer wg.Done()
			for i := ci; i < len(batch); i += len(g.conns) {
				q := batch[i]
				if d := time.Until(q.due); d > 0 {
					time.Sleep(d)
				}
				if g.snap != nil {
					q.na, q.nb = g.snap(q.p)
				}
				q.sent = time.Now()
				if qc.c.Query(uint32(first+i+1), q.p.a, q.p.b, g.deadline) != nil {
					continue // connection gone; the query stays lost
				}
				qc.sent.Add(1)
			}
		}(ci, qc)
	}
	wg.Wait()
	limit := time.Now().Add(grace)
	for time.Now().Before(limit) {
		pending := int64(0)
		for _, qc := range g.conns {
			pending += qc.sent.Load() - qc.answered.Load()
		}
		if pending == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, qc := range g.conns {
		for _, r := range qc.take() {
			if r.qid == 0 || int(r.qid) > len(g.qs) {
				continue
			}
			q := g.qs[r.qid-1]
			q.recv = r.at
			switch r.msg.Kind {
			case serve.MsgRefuse:
				q.out = oRefused
			case serve.MsgResult:
				q.stale = r.msg.Stale
				q.dist = r.msg.Distance
				q.srvMS = r.msg.Latency * 1000
				switch r.msg.Status {
				case serve.StatusOK:
					q.out = oOK
				case serve.StatusUnresolved:
					q.out = oUnresolved
				case serve.StatusShed:
					q.out = oShed
				default:
					q.out = oUnknown
				}
			}
		}
	}
	return batch
}

// sloMS is the repo's resolve_latency objective: p99 ≤ 50 ms.
const sloMS = 50

// rung summarises one ladder step.
type rung struct {
	rate     float64 // offered, q/s
	n        int     // queries sent
	achieved float64 // answered q/s from first due to last answer
	p99      float64
	failed   float64 // share
	backlog  int     // unanswered at the rung's last due time
	pass     bool
}

// judge applies the capacity rule to one phase: p99 ≤ 50 ms with
// unanswered queries counted as missing it, at most 1% failed, and no
// more queries outstanding at the end than 50 ms of arrivals.
func judge(qs []*query, rate float64) rung {
	r := rung{rate: rate, n: len(qs)}
	if len(qs) == 0 {
		return r
	}
	lat := make([]float64, len(qs))
	failed, answered := 0, 0
	last := qs[0].due
	end := qs[len(qs)-1].due
	for i, q := range qs {
		lat[i] = q.latencyMS()
		if !q.out.answered() {
			failed++
			continue
		}
		answered++
		if q.recv.After(last) {
			last = q.recv
		}
		if q.recv.After(end) {
			r.backlog++
		}
	}
	r.p99 = quantile(lat, 0.99)
	r.failed = float64(failed) / float64(len(qs))
	if span := last.Sub(qs[0].due).Seconds(); span > 0 {
		r.achieved = float64(answered) / span
	}
	r.pass = r.p99 <= sloMS && r.failed <= 0.01 && float64(r.backlog) <= math.Max(2, rate*sloMS/1000)
	return r
}
