package loadgen

import (
	"context"
	"math"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/serve"
	"rups/internal/trajectory"
)

// TestLoadGeneratorAgainstFaults runs a miniature soak in-process: a
// streaming fleet with stalled clients, malformed injection, and mid-run
// epoch resets, against a server with tight bounds. The assertions are
// the robustness contract: the server answers what it can, refuses what
// it cannot, kicks what misbehaves, evicts under its budget, survives
// garbage, and shuts down cleanly afterwards.
// Run under -race this is the service's main concurrency check.
func TestLoadGeneratorAgainstFaults(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()

	s := serve.New(serve.Config{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Params:  core.DefaultParams(),
		// Deliberately tight: force refusal paths under the fleet. A
		// mark costs 1,568 resident bytes, so the budget holds under half
		// of the fleet's uploads; the outbox holds a convoy round's acks
		// (about 40) but not a whole drive's.
		QueueCap:       16,
		PerConnQueries: 4,
		MemBudgetBytes: 16 << 20,
		OutboxCap:      64,
		Staleness:      core.DefaultStaleness(),
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stats := RunLoad(context.Background(), LoadConfig{
		Addr:            s.Addr().String(),
		Vehicles:        40,
		Rounds:          12,
		QueriesPerRound: 2,
		Seed:            7,
		MalformedEvery:  9,
		StallEvery:      10,
		ResetEvery:      7,
	})
	s.Shutdown()

	if stats.Connected == 0 || stats.QueriesSent == 0 {
		t.Fatalf("load generator did not run: %+v", stats)
	}
	if stats.SameRoad == 0 || stats.CrossRoad == 0 || stats.SameRoad+stats.CrossRoad != stats.QueriesSent {
		t.Fatalf("query mix: %+v", stats)
	}
	answered := stats.ResultsOK() + stats.Unresolved + stats.Shed + stats.UnknownVeh
	if answered+stats.Refused == 0 {
		t.Fatalf("no query was ever answered or refused: %+v", stats)
	}
	if stats.MalformedSent == 0 || stats.Resets == 0 {
		t.Fatalf("fault injection did not engage: %+v", stats)
	}
	// A stalled client sends its whole drive without waiting for acks, and
	// the server's reader queues one ack per frame before the writer
	// goroutine gets to run, so the outbox overflows. Its owed bytes alone
	// would fit the socket buffers; TestStalledClientKickedOverTCP in
	// internal/serve pins the kick once a socket stops taking bytes.
	for _, name := range []string{"rups_serve_malformed_total", "rups_serve_evictions_total", "rups_serve_slow_disconnects_total"} {
		if reg.Counter(name, "").Value() == 0 {
			t.Errorf("%s stayed 0 under a 40-vehicle faulty fleet", name)
		}
	}
}

// TestRecordedSessionMatchesColdOracle replays a small fleet (two roads of
// three vehicles), then asks a fresh connection for every same-road and
// cross-road pair. Chunks are lossless, so each server copy is exactly the
// prefix the loader streamed, and every answer must equal a cold
// engine.Batch.ResolvePairs over those prefixes: the same status, and a
// bit-equal distance when OK. The prefixes are rebuilt in sim time, since
// resolution never reads mark times.
func TestRecordedSessionMatchesColdOracle(t *testing.T) {
	s := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: 2, Params: core.DefaultParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	cfg := LoadConfig{Addr: s.Addr().String(), Vehicles: 6, Rounds: 4, Seed: 3}
	if st := RunLoad(context.Background(), cfg); st.QueriesSent == 0 || st.Connected != 6 {
		t.Fatalf("load did not run: %+v", st)
	}

	r := newRun(cfg)
	ctxs := make([]*trajectory.Aware, cfg.Vehicles)
	var pairs [][2]int
	for i := range ctxs {
		fv := r.fleetVehicle(uint32(i + 1))
		ctxs[i] = trajectory.NewAwareWidth(trajectory.Geo{}, fv.Aware().Width())
		d, ok := fv.DeltaUntil(0, r.cut(cfg.Rounds-1))
		if !ok || d.Apply(ctxs[i]) != nil {
			t.Fatalf("vehicle %d: no streamed prefix", i+1)
		}
		for j := range ctxs {
			if j != i {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	e := engine.New(0)
	defer e.Close()
	b, err := e.Admit(ctxs...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := b.ResolvePairs(pairs, core.DefaultParams())

	cl, err := serve.Dial(cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k, p := range pairs {
		if err := cl.Query(uint32(k), uint32(p[0]+1), uint32(p[1]+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	sameOK := 0
	for range pairs {
		m, err := cl.ReadMsg()
		if err != nil || m.Kind != serve.MsgResult {
			t.Fatalf("want a RESULT, got %+v (%v)", m, err)
		}
		p, o := pairs[m.QID], oracle[m.QID]
		if (m.Status == serve.StatusOK) != o.OK || (o.OK && math.Float64bits(m.Distance) != math.Float64bits(o.Est.Distance)) {
			t.Errorf("pair %d→%d: served status %d distance %v, cold oracle ok=%v distance %v",
				p[0]+1, p[1]+1, m.Status, m.Distance, o.OK, o.Est.Distance)
		}
		if o.OK && r.fleetVehicle(uint32(p[0]+1)).Run == r.fleetVehicle(uint32(p[1]+1)).Run {
			sameOK++
		}
	}
	if sameOK == 0 {
		t.Fatal("no same-road pair resolved: the bit-equality check compared nothing")
	}
}
