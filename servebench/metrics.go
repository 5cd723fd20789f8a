package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd computes the figures a user of the service sees. Latencies and
// answer shares are taken at the workload's fixed rate. res.e2e gets the
// metrics BENCHMARK.json bounds; res.ungated the ones whose run-to-run
// spread on a small shared VM is wider than any allowed bound, so they are
// reported (as per_layer entries "e2e.*") without one.
func endToEnd(res *result, w workload, f *fleet, ss setupStats, m *measured, setupChunkAck []float64) {
	e, u, info := &res.e2e, &res.ungated, &res.info
	var lat, all []float64
	var good, ok, refused, shed, unknown, lost, stale int
	for _, q := range m.fixed {
		l := q.latencyMS()
		all = append(all, l)
		if q.out.answered() {
			lat = append(lat, l)
			if l <= sloMS {
				good++
			}
		}
		if q.stale {
			stale++
		}
		switch q.out {
		case oOK:
			ok++
		case oRefused:
			refused++
		case oShed:
			shed++
		case oUnknown:
			unknown++
		case oLost:
			lost++
		}
	}
	n := float64(len(m.fixed))
	capacity := 0.0
	rates := make([]float64, len(m.rungs))
	for i, rg := range m.rungs {
		rates[i] = rg.achieved
		if rg.pass {
			capacity = math.Max(capacity, rg.achieved)
		}
	}
	// The top rungs saturate the server (as does overload's fixed rate);
	// the median of the three highest answer rates is its throughput,
	// steadier than any one rung.
	sort.Float64s(rates)
	peak := median(rates[max(0, len(rates)-3):])
	answered := 0
	for _, q := range m.qs {
		if q.out.answered() {
			answered++
		}
	}
	e.add("setup_s", medianDur(ss.total), "s", len(ss.total))
	e.add("cpu_ms_per_query", ratio(m.cpuSec*1000, float64(answered)), "ms", answered)
	e.add("server_rss_mb", m.rssMB, "MB", 1)
	e.add("peak_qps", peak, "q/s", min(3, len(rates)))

	ack := setupChunkAck
	if w.live {
		ack = m.st.pushAckMS
	}
	errs := answerErrors(m.qs, f)
	u.add("e2e.lat_p50_ms", median(lat), "ms", len(lat))
	u.add("e2e.lat_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	u.add("e2e.capacity_qps", capacity, "q/s", len(m.rungs))
	u.add("e2e.goodput_qps", m.rungs[0].achieved*ratio(float64(good), float64(len(lat))), "q/s", len(m.fixed))
	u.add("e2e.failed_frac", ratio(float64(refused+shed+unknown+lost), n), "ratio", len(m.fixed))
	u.add("e2e.ok_frac", ratio(float64(ok), n), "ratio", len(m.fixed))
	u.add("e2e.err_p50_m", median(errs), "m", len(errs))
	u.add("e2e.err_p90_m", quantile(errs, 0.9), "m", len(errs))
	u.add("e2e.ack_p50_ms", median(ack), "ms", len(ack))
	u.add("e2e.ingest_mps", median(ss.ingest), "marks/s", len(ss.ingest))

	// Latency over every sent query, each unanswered one counted as
	// missing every limit (+Inf), and the outcome counts behind
	// e2e.failed_frac.
	info.add("lat_all_p50_ms", median(all), "ms", len(all))
	info.add("lat_all_p99_ms", quantile(all, 0.99), "ms", len(all))
	info.add("refused", float64(refused), "count", len(m.fixed))
	info.add("shed", float64(shed), "count", len(m.fixed))
	info.add("unknown_vehicle", float64(unknown), "count", len(m.fixed))
	info.add("lost", float64(lost), "count", len(m.fixed))
	info.add("stale_answers", float64(stale), "count", len(m.fixed))
	info.add("stream_kicks", float64(m.st.kicks), "count", m.st.pushes)
	info.add("fixed_rate_qps", w.rate, "q/s", len(m.fixed))
	info.add("measured_s", m.dur.Seconds(), "s", 1)
	for i, d := range ss.total {
		info.add(fmt.Sprintf("setup_s.%d", i+1), d.Seconds(), "s", 1)
	}
	for i, rg := range m.rungs {
		res.notes = append(res.notes, rungNote(i, rg))
	}
}

// rungNote describes one capacity rung; rung 0 is the fixed-rate phase.
func rungNote(i int, rg rung) string {
	verdict := "fail"
	if rg.pass {
		verdict = "pass"
	}
	return fmt.Sprintf("rung %d: offered %.3f q/s, achieved %.3f q/s, p99 %.3f ms, failed %.3f, backlog %d → %s",
		i, rg.rate, rg.achieved, rg.p99, rg.failed, rg.backlog, verdict)
}

// answerErrors is |d_r − truth| over every OK answer between two vehicles
// of one convoy (cross-road pairs have no ground truth).
func answerErrors(qs []*query, f *fleet) []float64 {
	var errs []float64
	for _, q := range qs {
		a, b := f.byID[q.p.a], f.byID[q.p.b]
		if q.out != oOK || a.group != b.group || q.na == 0 || q.nb == 0 {
			continue
		}
		errs = append(errs, math.Abs(q.dist-truthAhead(a, b, q.na, q.nb)))
	}
	return errs
}

// perLayer computes the traced run's stage metrics: client-side timings,
// /metrics deltas over the measured phase, set-up spans, and the
// in-process replay.
func perLayer(res *result, w workload, f *fleet, ss setupStats, m *measured, capture [][][]byte) {
	l := &res.lay
	reps := len(ss.total)
	span := func(name string) float64 {
		xs := make([]float64, len(ss.spans))
		for i, s := range ss.spans {
			xs[i] = s[name]
		}
		return median(xs)
	}
	l.add("sim.fleet_s", medianDur(ss.fleet), "s", reps)
	l.add("scanner.scan_s", span("scan"), "s", reps)
	l.add("trajectory.bind_s", span("bind"), "s", reps)
	l.add("trajectory.interpolate_s", span("interpolate"), "s", reps)
	l.add("serve.upload_s", medianDur(ss.upload), "s", reps)

	st := m.st
	l.add("v2v.encode_us.per_chunk", ratio(float64(st.encode.Microseconds()), float64(st.chunks)), "us", st.chunks)
	offerUS, frames := replayOffers(capture, f.vs[0].aware.Width())
	l.add("v2v.offer_us.per_frame", offerUS, "us", frames)
	l.add("v2v.acks_per_frame", ratio(float64(st.acksRead), float64(st.framesSent)), "ratio", st.framesSent)

	var srvMS, wireMS, late []float64
	var refused, shed int
	for _, q := range m.fixed {
		late = append(late, msSince(q.due, q.sent))
		switch {
		case q.out.answered():
			srvMS = append(srvMS, q.srvMS)
			wireMS = append(wireMS, q.latencyMS()-q.srvMS)
		case q.out == oRefused:
			refused++
		case q.out == oShed:
			shed++
		}
	}
	n := float64(len(m.fixed))
	d := func(name string) float64 { return delta(m.before, m.after, name) }
	l.add("serve.server_ms.p50", median(srvMS), "ms", len(srvMS))
	l.add("serve.server_ms.p99", quantile(srvMS, 0.99), "ms", len(srvMS))
	l.add("serve.wire_ms.p50", median(wireMS), "ms", len(wireMS))
	l.add("serve.batch_pairs.mean", ratio(d("rups_serve_results_total"), d("rups_engine_batches_total")), "pairs", int(d("rups_engine_batches_total")))
	l.add("serve.refused_frac", ratio(float64(refused), n), "ratio", len(m.fixed))
	l.add("serve.shed_frac", ratio(float64(shed), n), "ratio", len(m.fixed))
	l.add("serve.slow_disconnects", m.after["rups_serve_slow_disconnects_total"], "count", 1)
	l.add("serve.resident_mb", m.after["rups_serve_resident_bytes"]/1e6, "MB", 1)

	rp := replayQueries(w, f, m)
	l.add("engine.admit_us.p50", median(rp.admitUS), "us", len(rp.admitUS))
	l.add("engine.resolve_ms.p50", median(rp.resolveMS), "ms", len(rp.resolveMS))
	l.add("engine.resolve_ms.p99", quantile(rp.resolveMS, 0.99), "ms", len(rp.resolveMS))
	pairs := d("rups_engine_pair_seconds_count")
	l.add("engine.pair_ms.mean", ratio(d("rups_engine_pair_seconds_sum")*1000, pairs), "ms", int(pairs))
	l.add("engine.inline_frac", ratio(d("rups_engine_tasks_inline_total"), d("rups_engine_tasks_total")), "ratio", int(d("rups_engine_tasks_total")))
	l.add("core.resolve_ms.syn.p50", median(rp.synMS), "ms", len(rp.synMS))
	l.add("core.resolve_ms.nosyn.p50", median(rp.nosynMS), "ms", len(rp.nosynMS))
	searches := d("rups_searcher_searches_total")
	scanned, pruned := d("rups_searcher_windows_scanned_total"), d("rups_searcher_windows_pruned_total")
	l.add("core.windows_scanned.per_pair", ratio(scanned, searches), "windows", int(searches))
	l.add("core.prune_ratio", ratio(pruned, pruned+scanned), "ratio", int(pruned+scanned))
	hits, falls := d("rups_core_warmstart_hits_total"), d("rups_core_warmstart_fallbacks_total")
	l.add("core.warm_hit_ratio", ratio(hits, hits+falls), "ratio", int(hits+falls))
	l.add("core.warm_hit_ratio.stable", ratio(rp.stableHits, rp.stableHits+rp.stableFalls), "ratio", int(rp.stableHits+rp.stableFalls))
	segs := d("rups_searcher_segments_total")
	l.add("core.syn_accept_ratio", ratio(d("rups_searcher_syn_accepted_total"), segs), "ratio", int(segs))
	snaps := d("rups_trajectory_snapshots_total")
	l.add("trajectory.snapshot_copied_kb", ratio(d("rups_trajectory_snapshot_bytes_copied_total")/1024, snaps), "KiB", int(snaps))

	// Reconciliation: the server-side latency against the sum of the
	// replayed stages; the rest is queue wait, batching and table locks.
	srvP50, admitMS, resolveMS := median(srvMS), median(rp.admitUS)/1000, median(rp.resolveMS)
	l.add("recon.residual_ms", srvP50-admitMS-resolveMS, "ms", len(srvMS))
	l.add("bench.gen_late_ms.p99", quantile(late, 0.99), "ms", len(late))
	if lat, ok := res.ungated.get("e2e.lat_p50_ms"); ok {
		l.add("recon.wire_share", ratio(median(wireMS), lat.Value), "ratio", len(wireMS))
		res.notes = append(res.notes, fmt.Sprintf(
			"reconciliation: lat_p50 %.3f ms = server %.3f ms (admit %.3f + resolve %.3f + residual %.3f) + wire %.3f ms",
			lat.Value, srvP50, admitMS, resolveMS, srvP50-admitMS-resolveMS, median(wireMS)))
	}
}

// provenance records what the numbers were measured on.
func provenance(w workload, seed uint64, seconds float64, traced bool, serverProcs int) map[string]any {
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs_bench": runtime.GOMAXPROCS(0), "gomaxprocs_server": serverProcs,
		"go_version": runtime.Version(), "cpu_model": cpuModel(),
		"git_revision": gitRevision(), "source_sha256": sourceDigest("."),
		"server_args": strings.Join(serverArgs, " "), "server_flags": serverDefaults,
		"query_conns": w.conns, "fixed_rate_qps": w.rate, "deadline_s": w.deadline,
		"ack_window_chunks": ackWindow, "setup_reps": setupReps,
	}
}

func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is HEAD when the source tree is a git checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root (build output
// and VCS metadata excluded), identifying the measured code when there is
// no git revision.
func sourceDigest(root string) string {
	var files []string
	// The callback never fails: unreadable entries drop out of the digest.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serverDefaults is the server's flag set as its -h output lists it,
// filled in by main.
var serverDefaults map[string]string

// readServerDefaults runs bin -h and parses "-name type" / "(default v)".
func readServerDefaults(bin string) map[string]string {
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	flags := map[string]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "-") {
			name = strings.Fields(t)[0][1:]
			flags[name] = ""
			continue
		}
		if i := strings.Index(t, "(default "); i >= 0 && name != "" {
			flags[name] = strings.TrimSuffix(t[i+len("(default "):], ")")
		}
	}
	return flags
}
