// Command rups-load replays a simulated fleet (package loadgen: two
// convoys of real 194-channel GSM context with ground truth) against a
// running rups-serve, on purpose badly: some clients stall and never read,
// some send garbage, some vanish mid-run and reconnect under a bumped
// epoch. It prints every outcome (results by status and road, refusals by
// reason, drains, disconnects) and the p90 of |d_r − truth|.
//
// With -require-progress the exit status becomes the assertion: the run
// fails unless the fleet connected and some query was answered or refused.
//
// Usage:
//
//	rups-load -addr 127.0.0.1:7077 [-vehicles 100] [-rounds 20]
//	          [-queries 1] [-deadline 0] [-pace 0] [-seed 7]
//	          [-malformed-every 0] [-stall-every 0] [-reset-every 0]
//	          [-require-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rups/internal/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "rups-serve address")
		vehicles = flag.Int("vehicles", 100, "connections, vehicle IDs 1..N; past the simulated fleet's size they replay its contexts")
		rounds   = flag.Int("rounds", 20, "stream/query rounds per vehicle; they split the simulated drive into equal steps")
		queries  = flag.Int("queries", 1, "pair queries per vehicle per round")
		deadline = flag.Float64("deadline", 0, "per-query relative deadline, seconds (0 = none)")
		pace     = flag.Float64("pace", 0, "seconds between a vehicle's rounds (0 = flat out, the overload case)")
		seed     = flag.Uint64("seed", 7, "run seed; the fleet, query peers, and garbage bytes derive from it")

		malformedEvery = flag.Int("malformed-every", 0, "send an extra garbage message after every Nth send (0 = off)")
		stallEvery     = flag.Int("stall-every", 0, "every Nth vehicle stalls and never reads responses (0 = off)")
		resetEvery     = flag.Int("reset-every", 0, "every Nth vehicle abruptly reconnects mid-run under a bumped epoch (0 = off)")

		requireProgress = flag.Bool("require-progress", false,
			"exit nonzero unless the fleet connected and queries were answered or refused")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	stats := loadgen.RunLoad(ctx, loadgen.LoadConfig{
		Addr:            *addr,
		Vehicles:        *vehicles,
		Rounds:          *rounds,
		QueriesPerRound: *queries,
		DeadlineRel:     *deadline,
		PaceSec:         *pace,
		Seed:            *seed,
		MalformedEvery:  *malformedEvery,
		StallEvery:      *stallEvery,
		ResetEvery:      *resetEvery,
	})

	fmt.Printf("connections     connected=%d conn_errors=%d server_disconnects=%d deliberate_resets=%d\n",
		stats.Connected, stats.ConnErrors, stats.Disconnect, stats.Resets)
	fmt.Printf("queries         sent=%d ok=%d stale=%d unresolved=%d shed=%d unknown_vehicle=%d\n",
		stats.QueriesSent, stats.ResultsOK(), stats.ResultsStale, stats.Unresolved, stats.Shed, stats.UnknownVeh)
	fmt.Printf("roads           same_road=%d same_road_ok=%d cross_road=%d cross_road_ok=%d\n",
		stats.SameRoad, stats.SameRoadOK, stats.CrossRoad, stats.CrossRoadOK)
	fmt.Printf("accuracy        err_samples=%d err_p90_m=%.3f\n", stats.ErrSamples, stats.ErrP90)
	fmt.Printf("backpressure    refused=%d queue=%d rate=%d draining=%d drain_notices=%d\n",
		stats.Refused, stats.RefusedQueue, stats.RefusedRate, stats.RefusedDrain, stats.Drains)
	fmt.Printf("faults injected malformed_sent=%d acks_seen=%d\n", stats.MalformedSent, stats.AcksSeen)

	if *requireProgress {
		answered := stats.ResultsOK() + stats.Unresolved + stats.Shed + stats.UnknownVeh + stats.Refused
		if stats.Connected == 0 || stats.QueriesSent == 0 || answered == 0 {
			fmt.Fprintf(os.Stderr, "rups-load: FAIL: no progress: %d connected, %d queries sent, %d answered or refused\n",
				stats.Connected, stats.QueriesSent, answered)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rups-load: progress contract held")
	}
}
