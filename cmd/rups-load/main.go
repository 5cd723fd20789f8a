// Command rups-load replays a synthetic vehicle fleet against a running
// rups-serve instance, on purpose badly: some clients stall and never
// read, some send garbage, some vanish mid-run and reconnect under a
// bumped epoch. Each vehicle streams its new marks once per round over
// TCP, which is reliable; link-level faults (loss, reordering,
// corruption) are the simulated DSRC path's business. The generator's job
// is to prove the server refuses rather than OOMs, deadlocks, or panics —
// it counts every outcome (results by status, refusals by reason, drains,
// disconnects) and prints the tally.
//
// With -require-progress the exit status becomes the assertion: the run
// fails unless the fleet connected and every wire-delivered query was
// answered or refused — the graceful-degradation contract the soak job
// gates on.
//
// Usage:
//
//	rups-load -addr 127.0.0.1:7077 [-vehicles 100] [-rounds 20]
//	          [-marks 4] [-width 8] [-queries 1] [-deadline 0] [-pace 0]
//	          [-seed 7] [-malformed-every 0] [-stall-every 0]
//	          [-reset-every 0] [-concurrency 0] [-require-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rups/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "rups-serve address")
		vehicles = flag.Int("vehicles", 100, "fleet size")
		rounds   = flag.Int("rounds", 20, "stream/query rounds per vehicle")
		marks    = flag.Int("marks", 4, "trajectory marks appended per round")
		width    = flag.Int("width", 8, "trajectory channel width")
		queries  = flag.Int("queries", 1, "pair queries per vehicle per round")
		deadline = flag.Float64("deadline", 0, "per-query relative deadline, seconds (0 = none)")
		pace     = flag.Float64("pace", 0, "seconds between a vehicle's rounds (0 = flat out, the overload case)")
		seed     = flag.Uint64("seed", 7, "run seed; trajectories, query targets, and garbage bytes derive from it")

		malformedEvery = flag.Int("malformed-every", 0, "send an extra garbage message after every Nth send (0 = off)")
		stallEvery     = flag.Int("stall-every", 0, "every Nth vehicle stalls and never reads responses (0 = off)")
		resetEvery     = flag.Int("reset-every", 0, "every Nth vehicle abruptly reconnects mid-run under a bumped epoch (0 = off)")
		concurrency    = flag.Int("concurrency", 0, "simultaneously active vehicles (0 = min(vehicles, 64))")

		requireProgress = flag.Bool("require-progress", false,
			"exit nonzero unless the fleet connected and queries were answered or refused")
	)
	flag.Parse()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "rups-load: interrupted, winding down")
		cancel()
	}()

	stats := serve.RunLoad(ctx, serve.LoadConfig{
		Addr:            *addr,
		Vehicles:        *vehicles,
		Rounds:          *rounds,
		MarksPerRound:   *marks,
		Width:           *width,
		QueriesPerRound: *queries,
		DeadlineRel:     *deadline,
		PaceSec:         *pace,
		Seed:            *seed,
		MalformedEvery:  *malformedEvery,
		StallEvery:      *stallEvery,
		ResetEvery:      *resetEvery,
		Concurrency:     *concurrency,
	})

	fmt.Printf("connections     connected=%d conn_errors=%d server_disconnects=%d deliberate_resets=%d\n",
		stats.Connected, stats.ConnErrors, stats.Disconnect, stats.Resets)
	fmt.Printf("queries         sent=%d ok=%d stale=%d unresolved=%d shed=%d unknown_vehicle=%d\n",
		stats.QueriesSent, stats.ResultsOK, stats.ResultsStale, stats.Unresolved, stats.Shed, stats.UnknownVeh)
	fmt.Printf("backpressure    refused=%d queue=%d rate=%d draining=%d drain_notices=%d\n",
		stats.Refused, stats.RefusedQueue, stats.RefusedRate, stats.RefusedDrain, stats.Drains)
	fmt.Printf("faults injected malformed_sent=%d acks_seen=%d\n",
		stats.MalformedSent, stats.AcksSeen)

	if *requireProgress {
		answered := stats.ResultsOK + stats.Unresolved + stats.Shed + stats.UnknownVeh
		switch {
		case stats.Connected == 0:
			fmt.Fprintln(os.Stderr, "rups-load: FAIL: no vehicle ever connected")
			os.Exit(1)
		case stats.QueriesSent == 0:
			fmt.Fprintln(os.Stderr, "rups-load: FAIL: no query was ever sent")
			os.Exit(1)
		case answered+stats.Refused == 0:
			fmt.Fprintln(os.Stderr, "rups-load: FAIL: no query was ever answered or refused")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rups-load: progress contract held")
	}
}
