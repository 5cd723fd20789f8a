package serve

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rups/internal/obs"
)

// TestShutdownDrainGracefully is the SIGTERM-path regression test (run
// under -race): Shutdown racing live clients must answer or refuse every
// query — no hangs, no panics, no silent drops — notify connections with
// DRAIN, flush outboxes, and leave the server fully torn down.
func TestShutdownDrainGracefully(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{
		Addr: "127.0.0.1:0", Clock: sim, Workers: 2, Params: testParams(),
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	tel := stel()
	drainsBefore := tel.drains.Value()

	const clients = 4
	const queriesEach = 25
	var wg sync.WaitGroup
	var accounted, disconnects int64
	var mu sync.Mutex
	for ci := 0; ci < clients; ci++ {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(cl *Client, ci int) {
			defer wg.Done()
			for q := 0; q < queriesEach; q++ {
				// Unknown vehicles: answered instantly, which keeps the
				// accounting exact without needing streamed context.
				if cl.Query(uint32(q+1), uint32(ci*100+1), uint32(ci*100+2), 0) != nil {
					return
				}
			}
		}(cl, ci)
		go func(cl *Client) {
			defer wg.Done()
			defer cl.Close()
			n := int64(0)
			for {
				m, err := cl.ReadMsg()
				if err != nil {
					mu.Lock()
					accounted += n
					disconnects++
					mu.Unlock()
					return
				}
				if m.Kind == MsgResult || m.Kind == MsgRefuse {
					n++
				}
			}
		}(cl)
	}

	done := make(chan DrainStats, 1)
	go func() { done <- s.Shutdown() }()
	stats := <-done
	wg.Wait()

	if got := tel.drains.Value(); got != drainsBefore+1 {
		t.Fatalf("drains %d, want %d", got, drainsBefore+1)
	}
	// Every query got exactly one of: RESULT, REFUSE, or a closed
	// connection before the send — never more responses than queries,
	// never a hang (reaching here at all proves the latter).
	if accounted > clients*queriesEach {
		t.Fatalf("%d responses for at most %d queries", accounted, clients*queriesEach)
	}
	if disconnects != clients {
		t.Fatalf("%d reader exits, want %d", disconnects, clients)
	}

	// The listener is down: new connections fail.
	if _, err := Dial(s.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Shutdown is idempotent and still reports the drain snapshot.
	if again := s.Shutdown(); again.ResidentVehicles != stats.ResidentVehicles {
		t.Fatalf("second Shutdown diverged: %+v vs %+v", again, stats)
	}
}

// TestShutdownFlushesAdmittedQueries pins the drain guarantee precisely:
// queries admitted before the drain began are answered during it, counted
// by the drained-queries metric, and their RESULT frames reach the client
// before the connection closes.
func TestShutdownFlushesAdmittedQueries(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{Clock: sim, Workers: 1, Params: testParams(), QueueCap: 8})
	// No Start: admit queries with no resolver running, so they are
	// provably queued when the drain begins.
	srvNC, cliNC := net.Pipe()
	c := &conn{s: s, nc: srvNC, outbox: make(chan []byte, 8)}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	go c.writeLoop()

	// net.Pipe is unbuffered, so the client must read concurrently or the
	// drain's flush would block on the first write.
	peer := NewClient(cliNC)
	msgs := make(chan Msg, 16)
	go func() {
		defer close(msgs)
		for {
			m, err := peer.ReadMsg()
			if err != nil {
				return
			}
			msgs <- m
		}
	}()

	const admitted = 3
	for i := 1; i <= admitted; i++ {
		s.admitQuery(&query{qid: uint32(i), a: 900, b: 901, admitted: sim.Now(), c: c})
	}
	flushedBefore := stel().drainedQueries.Value()

	// Drain: once the queue is sealed, the resolver starts, finds the
	// backlog, answers it, exits. Starting it only after the seal keeps
	// it from answering the backlog before the drain begins.
	go s.sweepLoop()
	done := make(chan DrainStats, 1)
	go func() { done <- s.Shutdown() }()
	for !s.isDraining() {
		runtime.Gosched()
	}
	go s.resolveLoop()
	stats := <-done

	got := map[uint32]bool{}
	sawDrain := false
	for m := range msgs {
		switch m.Kind {
		case MsgDrain:
			sawDrain = true
		case MsgResult:
			got[m.QID] = true
		default:
			t.Fatalf("unexpected message during drain: %+v", m)
		}
	}
	for i := 1; i <= admitted; i++ {
		if !got[uint32(i)] {
			t.Fatalf("qid %d never answered during drain (got %v)", i, got)
		}
	}
	if !sawDrain {
		t.Fatal("client never saw the DRAIN notice")
	}
	if stats.Flushed != flushedBefore+admitted {
		t.Fatalf("drain stats flushed %d, want %d", stats.Flushed, flushedBefore+admitted)
	}
}

// TestDrainCountsBatchInFlightAtSeal: the batch the resolver is already
// working on when Shutdown seals the queue is answered during the drain
// and must count as drained. Holding the vehicle table's lock parks the
// resolver inside resolveBatch (its snapshot lookup needs the lock), so
// the batch is provably in flight, not queued, when the seal happens.
func TestDrainCountsBatchInFlightAtSeal(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{Clock: sim, Workers: 1, Params: testParams(), QueueCap: 8})
	srvNC, cliNC := net.Pipe()
	c := &conn{s: s, nc: srvNC, outbox: make(chan []byte, 8)}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	go c.writeLoop()
	peer := NewClient(cliNC)
	results := make(chan uint32, 8)
	go func() {
		defer close(results)
		for {
			m, err := peer.ReadMsg()
			if err != nil {
				return
			}
			if m.Kind == MsgResult {
				results <- m.QID
			}
		}
	}()

	flushedBefore := stel().drainedQueries.Value()
	s.tab.mu.Lock()
	s.admitQuery(&query{qid: 1, a: 900, b: 901, admitted: sim.Now(), c: c})
	go s.resolveLoop()
	go s.sweepLoop()
	waitForStack(t, "serve.(*vtable).get")

	done := make(chan DrainStats, 1)
	go func() { done <- s.Shutdown() }()
	for !s.isDraining() {
		runtime.Gosched()
	}
	s.tab.mu.Unlock()
	stats := <-done

	var got []uint32
	for qid := range results {
		got = append(got, qid)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("results %v, want exactly qid 1", got)
	}
	if stats.Flushed != flushedBefore+1 {
		t.Fatalf("drain stats flushed %d, want %d: the in-flight batch was not counted",
			stats.Flushed, flushedBefore+1)
	}
}

// waitForStack blocks until some goroutine's stack contains fn — how a test
// knows a goroutine has reached a lock it is meant to block on.
func waitForStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// TestShutdownLeavesNoGoroutines runs a stream + query session, closes
// the client and shuts the server down: every goroutine New and Start
// spawned (accept loop, resolver, engine workers, sweeper, per-connection
// readers and writers, clock tickers) must be gone within a bounded time.
// Neither go vet nor -race notices a goroutine leaked past Shutdown; this
// test does, and prints the leftover stacks.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	before := runtime.NumGoroutine()
	trajs := testConvoy(5, 2, 200, 20, 32)
	s := New(Config{Addr: "127.0.0.1:0", Clock: NewSimClock(1250), Workers: 2, Params: testParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	streamVehicle(t, cl, 1, 1, trajs[0])
	cl2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	streamVehicle(t, cl2, 2, 1, trajs[1])
	if err := cl.Query(1, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if m := readResult(t, cl); m.Kind != MsgResult {
		t.Fatalf("want a RESULT, got %+v", m)
	}
	_ = cl.Close() // teardown; the error carries nothing to check
	_ = cl2.Close()
	s.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines before New, %d after Shutdown; stacks:\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmitRacesDrainSeal pins the admission gate's read lock across the
// queue send. Released before the send, drain's seal can close the queue
// between the draining check and the send: the send then panics, or -race
// reports it against the close. Several admitters spin while the seal
// lands among them; the resolver starts only after the seal, so no receive
// orders an admitted send before the close.
func TestAdmitRacesDrainSeal(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	for round := 0; round < 20; round++ {
		sim := NewSimClock(1250)
		s := New(Config{Clock: sim, Workers: 1, Params: testParams(), QueueCap: 1 << 12, PerConnQueries: 1 << 12})
		srvNC, cliNC := net.Pipe()
		c := &conn{s: s, nc: srvNC, outbox: make(chan []byte, 1<<13)}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		go c.writeLoop()
		go func() {
			peer := NewClient(cliNC)
			for {
				if _, err := peer.ReadMsg(); err != nil {
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g uint32) {
				defer wg.Done()
				for qid := g << 24; !s.isDraining(); qid++ {
					s.admitQuery(&query{qid: qid, a: 900, b: 901, admitted: sim.Now(), c: c})
				}
			}(uint32(g))
		}
		for len(s.queries) < 32 {
			runtime.Gosched()
		}
		go s.sweepLoop()
		done := make(chan DrainStats, 1)
		go func() { done <- s.Shutdown() }()
		for !s.isDraining() {
			runtime.Gosched()
		}
		go s.resolveLoop()
		<-done
		wg.Wait()
	}
}

// TestSendRacesCloseSend pins omu across the outbox send. Released before
// the send, closeSend can close the outbox between the sendClosed check
// and the send: the send then panics, or -race reports it against the
// close. No writer drains the outbox, so no receive orders a send before
// the close.
func TestSendRacesCloseSend(t *testing.T) {
	msg := drainFrame()
	for round := 0; round < 40; round++ {
		srvNC, cliNC := net.Pipe()
		c := &conn{nc: srvNC, outbox: make(chan []byte, 1<<14)}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c.send(msg) {
				}
			}()
		}
		for len(c.outbox) < 32 {
			runtime.Gosched()
		}
		c.closeSend()
		wg.Wait()
		srvNC.Close()
		cliNC.Close()
	}
}
