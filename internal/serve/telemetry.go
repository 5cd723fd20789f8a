package serve

import "rups/internal/obs"

// serveTelemetry is the resolution service's metric roster (see
// docs/OBSERVABILITY.md and docs/SERVICE.md). The counters narrate the
// admission story — what was asked, what was answered, what was refused
// and why — and the gauges bound the resident state the soak job holds
// the server to: queue depth under its cap, resident snapshot bytes
// under the memory budget.
type serveTelemetry struct {
	connsTotal  *obs.Counter
	connsActive *obs.Gauge

	queries *obs.Counter
	results *obs.Counter
	shed    *obs.Counter

	refused      *obs.Counter
	refusedQueue *obs.Counter
	refusedRate  *obs.Counter
	refusedDrain *obs.Counter
	refusedConns *obs.Counter

	evictions       *obs.Counter
	evictionsExpiry *obs.Counter
	residentBytes   *obs.Gauge
	residentVeh     *obs.Gauge
	queueDepth      *obs.Gauge

	slowDisconnects *obs.Counter
	malformed       *obs.Counter

	drains         *obs.Counter
	drainedQueries *obs.Counter

	snapshotsReused *obs.Counter

	resolveSec *obs.Histogram
}

// disabledTel is the all-nil roster served while telemetry is off: every
// handle method is nil-receiver-safe, so call sites pay one branch here
// instead of a nil check each.
var disabledTel serveTelemetry

// stel returns the live metric roster, or the inert one when no registry
// is enabled.
func stel() *serveTelemetry {
	if t := serveTel.Get(); t != nil {
		return t
	}
	return &disabledTel
}

var serveTel = obs.NewView(func(r *obs.Registry) *serveTelemetry {
	return &serveTelemetry{
		connsTotal: r.Counter("rups_serve_connections_total",
			"client connections accepted"),
		connsActive: r.Gauge("rups_serve_connections_active",
			"client connections currently open"),
		queries: r.Counter("rups_serve_queries_total",
			"pair queries received (admitted or refused)"),
		results: r.Counter("rups_serve_results_total",
			"query results sent back to clients"),
		shed: r.Counter("rups_serve_queries_shed_total",
			"admitted queries shed because their deadline expired before resolution started"),
		refused: r.Counter("rups_serve_refused_total",
			"requests refused with explicit backpressure (sum of the per-reason counters)"),
		refusedQueue: r.Counter("rups_serve_refused_queue_total",
			"queries refused because the admission queue or per-connection bound was full"),
		refusedRate: r.Counter("rups_serve_refused_rate_total",
			"queries refused by the per-client rate limit"),
		refusedDrain: r.Counter("rups_serve_refused_drain_total",
			"queries refused because the server was draining"),
		refusedConns: r.Counter("rups_serve_refused_conn_limit_total",
			"connections refused at the connection cap"),
		evictions: r.Counter("rups_serve_evictions_total",
			"per-vehicle snapshots evicted from the resident set"),
		evictionsExpiry: r.Counter("rups_serve_evictions_expiry_total",
			"evictions driven by staleness expiry rather than LRU memory pressure"),
		residentBytes: r.Gauge("rups_serve_resident_bytes",
			"approximate bytes of resident per-vehicle trajectory state"),
		residentVeh: r.Gauge("rups_serve_resident_vehicles",
			"vehicles with resident trajectory state"),
		queueDepth: r.Gauge("rups_serve_queue_depth",
			"admitted queries waiting for the resolver"),
		slowDisconnects: r.Counter("rups_serve_slow_disconnects_total",
			"connections dropped because the client stopped reading (outbox overflow)"),
		malformed: r.Counter("rups_serve_malformed_total",
			"messages dropped as malformed (bad framing, CRC, or unknown type)"),
		drains: r.Counter("rups_serve_drains_total",
			"graceful drains begun (SIGTERM or Shutdown)"),
		drainedQueries: r.Counter("rups_serve_drained_queries_total",
			"admitted queries flushed to completion during a drain"),
		snapshotsReused: r.Counter("rups_serve_snapshots_reused_total",
			"batch vehicle lookups answered with the vehicle's cached snapshot (context unchanged since it was taken)"),
		// 2^-20 s ≈ 1 µs up to 2^4 = 16 s, matching the engine's pair
		// histogram so the resolve-latency SLO reads either.
		resolveSec: r.Histogram("rups_serve_resolve_seconds",
			"per-query resolve latency as observed by the service (admission to result)", -20, 4),
	}
})
