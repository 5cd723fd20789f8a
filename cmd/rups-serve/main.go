// Command rups-serve runs the long-running resolution service: vehicles
// connect over TCP, stream trajectory deltas with the v2v frame codec,
// and issue d_r pair queries against the server's resident per-vehicle
// snapshots. The service degrades gracefully rather than falling over —
// every bound is explicit and every refusal is a frame, not a silent
// drop:
//
//   - admission control: a bounded engine queue and per-connection
//     outstanding-query bound; past either, the client gets REFUSE with
//     a retry-after hint (-queue-cap, -per-conn);
//   - deadline propagation: a query's relative deadline rides to the
//     engine, which sheds expired work before scheduling it;
//   - memory ceiling: resident vehicle snapshots live in an LRU under
//     -mem-budget bytes; past it the coldest vehicles are evicted and
//     their connections kicked (the client restreams under a bumped
//     epoch). A staleness sweep expires contexts the engine would refuse
//     anyway (-expire-after);
//   - misbehaving clients: a per-client query rate limit (-rate) and a
//     slow-reader disconnect when a client stops draining responses;
//   - graceful drain: SIGTERM/SIGINT stops accepting, answers what was
//     admitted, notifies every connection with DRAIN, flushes outboxes,
//     and writes a final metrics snapshot (-metrics-snapshot).
//
// Telemetry: -debug-addr serves live Prometheus metrics (/metrics,
// rups_serve_*), SLO burn rates (/debug/slo), the span ring, and pprof;
// -flight-dir arms anomaly capsule dumps.
//
// Usage:
//
//	rups-serve [-addr 127.0.0.1:7077] [-workers 0] [-max-conns 1024]
//	           [-queue-cap 256] [-per-conn 64] [-rate 0] [-mem-budget 67108864]
//	           [-stale-after 30] [-expire-after 150] [-retry-after 0.5]
//	           [-debug-addr 127.0.0.1:6060]
//	           [-metrics-snapshot out.prom] [-flight-dir capsules/]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/obs/slo"
	"rups/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7077", "TCP listen address")
		workers   = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		maxConns  = flag.Int("max-conns", 1024, "connection cap; past it new connections are refused")
		queueCap  = flag.Int("queue-cap", 256, "engine admission queue bound; past it queries are refused")
		perConn   = flag.Int("per-conn", 64, "outstanding-query bound per connection")
		rate      = flag.Float64("rate", 0, "per-client query rate limit, queries/second (0 = unlimited)")
		memBudget = flag.Int64("mem-budget", 64<<20,
			"resident snapshot memory budget, bytes; past it cold vehicles are evicted (0 = unbounded)")
		staleAfter  = flag.Float64("stale-after", 30, "flag results stale past this context age, seconds")
		expireAfter = flag.Float64("expire-after", 150, "expire resident contexts past this age, seconds")
		sweepEvery  = flag.Float64("sweep-every", 5, "staleness sweep interval, seconds")
		retryAfter  = flag.Float64("retry-after", 0.5, "retry-after hint on queue refusals, seconds")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/slo, /debug/spans, and pprof on this address")
		snapshot  = flag.String("metrics-snapshot", "", "write the final Prometheus metrics snapshot to this file at drain")
		flightDir = flag.String("flight-dir", "", "write anomaly-triggered flight capsules into this directory")
		sloConfig = flag.String("slo-config", "", "load the SLO objective roster from this JSON file (default: built-in roster)")
	)
	flag.Parse()

	// Telemetry is always on: a service without its refusal counters is
	// indistinguishable from one that silently drops.
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(obs.DefaultRingSize)
	obs.Enable(reg)
	obs.SetRecorder(rec)
	fl := flight.NewRing(flight.DefaultRingSize, flight.Config{Dir: *flightDir})
	flight.Enable(fl)
	objectives := slo.DefaultRoster()
	if *sloConfig != "" {
		var err error
		if objectives, err = slo.Load(*sloConfig); err != nil {
			fmt.Fprintf(os.Stderr, "rups-serve: slo config: %v\n", err)
			os.Exit(2)
		}
	}
	slt := slo.New(objectives, reg)

	s := serve.New(serve.Config{
		Addr:           *addr,
		Workers:        *workers,
		Params:         core.DefaultParams(),
		Staleness:      core.Staleness{StaleAfterSec: *staleAfter, ExpireAfterSec: *expireAfter},
		MaxConns:       *maxConns,
		QueueCap:       *queueCap,
		PerConnQueries: *perConn,
		RatePerSec:     *rate,
		MemBudgetBytes: *memBudget,
		SweepEverySec:  *sweepEvery,
		RetryAfterSec:  *retryAfter,
		SLO:            slt,
	})
	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "rups-serve: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rups-serve: listening on %s\n", s.Addr())

	if *debugAddr != "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv, err := obs.ServeDebug(ctx, *debugAddr, reg, rec,
			obs.Route{Pattern: "/debug/slo", Handler: slt.Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rups-serve: debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rups-serve: debug endpoint on http://%s\n", srv.Addr())
	}

	// Graceful drain on SIGTERM/SIGINT: stop accepting, answer the
	// admitted backlog, notify connections, flush, then snapshot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "rups-serve: %v — draining\n", sig)
	stats := s.Shutdown()
	fmt.Fprintf(os.Stderr, "rups-serve: drained (flushed %d queries, %d vehicles / %d bytes resident)\n",
		stats.Flushed, stats.ResidentVehicles, stats.ResidentBytes)

	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rups-serve: metrics snapshot: %v\n", err)
			os.Exit(1)
		}
		werr := reg.WritePrometheus(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "rups-serve: metrics snapshot: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rups-serve: metrics snapshot written to %s\n", *snapshot)
	}
}
