package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// setUpRepeats is how many times a run sets its workload up; setup_s is the
// median, so one or two slow set-ups do not move it.
const setUpRepeats = 11

// End-to-end metric units.
const (
	unitRate  = "1/s"
	unitUS    = "us"
	unitPerRq = "1/req"
	unitBPerR = "B/req"
	unitRatio = "1"
	unitSec   = "s"
	unitMB    = "MB"
)

// meshSpecs configures the two mesh workloads.
var meshSpecs = map[string]struct {
	spec   meshSpec
	inputs func(seed int64) *meshInputs
	cycle  bool // hit_mix cycles its list; miss_churn must never repeat a URL
}{
	"hit_mix":    {meshSpec{cacheBytes: hitCacheBytes, singleCopy: true}, hitMixInputs, true},
	"miss_churn": {meshSpec{cacheBytes: churnCacheBytes}, missChurnInputs, false},
}

// splitSeconds divides a traced run into its untraced and traced halves.
func splitSeconds(total int) (untraced, traced int) {
	untraced = total / 2
	if untraced < 1 {
		untraced = 1
	}
	traced = total - untraced
	if traced < 1 {
		traced = 1
	}
	return untraced, traced
}

func runMesh(o options) (*result, error) {
	ws := meshSpecs[o.workload]
	in := ws.inputs(o.seed)
	var m *mesh
	var setups []float64
	for i := 0; i < setUpRepeats; i++ {
		if m != nil {
			m.close()
			m = nil // garbage for the collection below
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		var err error
		if m, err = startMesh(ws.spec, in); err != nil {
			return nil, err
		}
		if err := m.setUp(); err != nil {
			m.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer m.close()

	res := &result{}
	if !o.traced {
		if err := startPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		ph, _, err := m.run(m.in.Timed, 0, ws.cycle, o.seconds, false)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		meshMetrics(res, o.workload, ph)
		checkMesh(res, o.workload, m, ph)
		res.add("setup_s", median(setups), unitSec, fmt.Sprintf("median of %d set-ups", len(setups)))
		res.add("rss_peak_mb", rss, unitMB, "peak of the timed phase")
		return res, nil
	}

	// Traced run: an untraced half, then a traced half continuing the
	// request list; their difference is the span-recording overhead.
	plainS, tracedS := splitSeconds(o.seconds)
	plain, next, err := m.run(m.in.Timed, 0, ws.cycle, plainS, false)
	if err != nil {
		return nil, err
	}
	traced, _, err := m.run(m.in.Timed, next, ws.cycle, tracedS, true)
	if err != nil {
		return nil, err
	}
	var base, withSpans result
	meshMetrics(&base, o.workload, plain)
	meshMetrics(&withSpans, o.workload, traced)
	res.violations = append(append(res.violations, base.violations...), withSpans.violations...)
	checkMesh(res, o.workload, m, plain)
	checkMesh(res, o.workload, m, traced)
	res.attempted = plain.issued + traced.issued
	res.failed = plain.failed + traced.failed
	meshCounts(res, traced)
	lad := newLadder()
	if err := runMeshLadder(lad, m, true); err != nil {
		return nil, err
	}
	if err := lad.report(res); err != nil {
		return nil, err
	}
	overhead(res, &base, &withSpans)
	recs := append(traced.spans, lad.rec)
	if err := writeSpans(o.spansDir, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed), recs...); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// meshMetrics reports a phase's end-to-end metrics. throughput_rps and
// cpu_us_per_req are medians over the phase's one-second windows, so one
// slow second does not move them. Latencies, and the false-hit ratio where
// the workload has false hits, go to the table only: the simulator has no
// per-request latency, and not every workload has every leg.
func meshMetrics(res *result, workload string, ph *phase) {
	res.attempted += ph.issued
	res.failed += ph.failed
	t := ph.totals()
	var rates, cpus []float64
	for _, w := range ph.windows {
		if w.requests > 0 {
			rates = append(rates, float64(w.requests)/w.wall.Seconds())
			cpus = append(cpus, float64(w.cpu.Nanoseconds())/1e3/float64(w.requests))
		}
	}
	res.add("throughput_rps", median(rates), unitRate, fmt.Sprintf("median of %d windows", len(rates)))
	res.add("cpu_us_per_req", median(cpus), unitUS, fmt.Sprintf("median of %d windows", len(cpus)))
	reqs := float64(t.requests)
	res.add("udp_msgs_per_req", float64(t.udpSent)/reqs, unitPerRq, fmt.Sprintf("%d datagrams", t.udpSent))
	res.add("udp_bytes_per_req", float64(t.udpSentBytes)/reqs, unitBPerR, "")
	buf := ph.gather(nil, -1, -1)
	addPercentile(res, "latency_p50_us", buf.sort(), 0.50)
	buf = addWindowP99(res, "latency_p99_us", ph, buf)
	if workload == "hit_mix" {
		buf = ph.gather(buf[:0], -1, 0)
		addPercentile(res, "local_hit_p50_us", buf.sort(), 0.50)
		buf = ph.gather(buf[:0], -1, 1)
		addPercentile(res, "remote_hit_p50_us", buf.sort(), 0.50)
	}
	if workload == "miss_churn" {
		res.info("false_hit_ratio", float64(t.falseHits)/reqs, unitRatio, fmt.Sprintf("%d false hits", t.falseHits))
	}
}

// addPercentile shows a nearest-rank percentile with its sample count, or
// records a violation when too few samples lie above it.
func addPercentile(res *result, name string, sorted latencies, p float64) {
	v, err := sorted.percentileUS(name, p)
	if err != nil {
		res.violate("%v", err)
		return
	}
	_, above, _ := nearestRank(sorted, p)
	res.info(name, v, unitUS, fmt.Sprintf("n=%d, %d above", len(sorted), above))
}

// addWindowP99 shows the median over one-second windows of each
// window's nearest-rank p99, so one window with a scheduling stall does not
// set the tail. Every window must hold enough samples for its p99. buf is
// scratch space, returned for reuse.
func addWindowP99(res *result, name string, ph *phase, buf latencies) latencies {
	var p99s []float64
	n := 0
	for w := range ph.windows {
		buf = ph.gather(buf[:0], w, -1)
		v, err := buf.sort().percentileUS(fmt.Sprintf("%s of window %d", name, w), 0.99)
		if err != nil {
			res.violate("%v", err)
			continue
		}
		p99s = append(p99s, v)
		n += len(buf)
	}
	if len(p99s) > 0 {
		res.info(name, median(p99s), unitUS, fmt.Sprintf("median of %d window p99s over n=%d", len(p99s), n))
	}
	return buf
}

// hitLocalTolerance is how far hit_mix's measured local-hit share may sit
// from hitLocalShare. With at least 10k requests the binomial standard
// deviation is under 0.5 points, so 2 points is a four-sigma bound.
const hitLocalTolerance = 0.02

// checkMesh is the mesh workloads' correctness gate.
func checkMesh(res *result, workload string, m *mesh, ph *phase) {
	t := ph.totals()
	if ph.failed > 0 {
		res.violate("%d of %d requests failed; first: %v", ph.failed, ph.issued, ph.firstErr)
	}
	if t.requests != uint64(ph.issued) {
		res.violate("proxies counted %d requests, clients issued %d", t.requests, ph.issued)
	}
	if t.retries != 0 {
		res.violate("%d origin fetches were retried", t.retries)
	}
	switch workload {
	case "hit_mix":
		if t.originFetches != 0 || t.misses != 0 {
			res.violate("hit_mix reached the origin %d times (%d misses)", t.originFetches, t.misses)
		}
		if t.localHits != uint64(ph.legs[0]) || t.remoteHits != uint64(ph.legs[1]) {
			res.violate("proxies counted %d local / %d remote hits, the request list asked for %d / %d",
				t.localHits, t.remoteHits, ph.legs[0], ph.legs[1])
		}
		if share := float64(t.localHits) / float64(t.requests); math.Abs(share-hitLocalShare) > hitLocalTolerance {
			res.violate("local-hit share %.4f is outside %.2f±%.2f", share, hitLocalShare, hitLocalTolerance)
		}
		for i, p := range m.proxies {
			if p.CacheLen() != len(m.in.Fill[i]) {
				res.violate("proxy %d holds %d documents, its resident set is %d", i, p.CacheLen(), len(m.in.Fill[i]))
			}
		}
	case "miss_churn":
		if t.localHits != 0 || t.remoteHits != 0 {
			res.violate("miss_churn saw %d local and %d remote hits", t.localHits, t.remoteHits)
		}
	}
}

// meshCounts reports the per-layer counts of the traced phase, taken from
// Proxy.Stats() deltas at its boundaries.
func meshCounts(res *result, ph *phase) {
	t := ph.totals()
	reqs := float64(t.requests)
	lookups := float64(t.requests - t.localHits)
	res.addLayer("core.candidates_per_lookup", float64(t.queriesSent)/lookups, fmt.Sprintf("%d queries / %.0f lookups", t.queriesSent, lookups))
	res.addLayer("core.query_hit_ratio", queryHitRatio(t.nodeRemoteHits, t.nodeFalseHits), fmt.Sprintf("of %d lookups that queried", t.nodeRemoteHits+t.nodeFalseHits))
	res.addLayer("core.updates_per_req", float64(t.updatesSent)/reqs, "")
	res.addLayer("httpproxy.peer_fetches_per_req", float64(t.peerFetches)/reqs, "")
	res.addLayer("httpproxy.origin_fetches_per_req", float64(t.originFetches)/reqs, "")
	res.info("httpproxy.http_msgs_per_req", float64(t.httpMessages)/reqs, unitPerRq, "")
	res.info("icp.dropped", float64(t.udpDropped), "count", "")
	res.info("icp.send_errors", float64(t.udpSendErrors), "count", "")
	res.addLayer("runtime.alloc_bytes_per_req", float64(ph.mem.allocBytes)/reqs, "")
	res.addLayer("runtime.gc_cycles_per_kreq", 1000*float64(ph.mem.gcCycles)/reqs, "")
}

// queryHitRatio is the share of querying lookups that found the document;
// 0 when none queried.
func queryHitRatio(found, falseHits uint64) float64 {
	if found+falseHits == 0 {
		return 0
	}
	return float64(found) / float64(found+falseHits)
}

// overhead reports, for every end-to-end timing both halves measured, the
// traced half's value minus the untraced half's.
func overhead(res *result, base, traced *result) {
	for _, b := range base.metrics {
		name := "overhead." + b.name
		if _, ok := layerUnits[name]; !ok {
			continue
		}
		for _, t := range traced.metrics {
			if t.name == b.name {
				res.addLayer(name, t.value-b.value, fmt.Sprintf("traced %.6g - untraced %.6g", t.value, b.value))
			}
		}
	}
}

func runTraceSim(o options) (*result, error) {
	var w *simWorkload
	var setups []float64
	for i := 0; i < setUpRepeats; i++ {
		w = nil      // the previous set-up's trace is garbage before this one starts
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		var err error
		if w, err = setUpSim(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{}
	budget := time.Duration(o.seconds) * time.Second
	if !o.traced {
		if err := startPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		ph, err := w.runSim(budget, 3, false)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if err := ph.check(o.seed); err != nil {
			res.violate("%v", err)
		}
		res.attempted = ph.requests()
		simMetrics(res, ph)
		res.add("setup_s", median(setups), unitSec, fmt.Sprintf("median of %d set-ups", len(setups)))
		res.add("rss_peak_mb", rss, unitMB, "peak of the timed phase")
		return res, nil
	}

	plainS, tracedS := splitSeconds(o.seconds)
	plain, err := w.runSim(time.Duration(plainS)*time.Second, 2, false)
	if err != nil {
		return nil, err
	}
	traced, err := w.runSim(time.Duration(tracedS)*time.Second, 2, true)
	if err != nil {
		return nil, err
	}
	for _, ph := range []*simPhase{plain, traced} {
		if err := ph.check(o.seed); err != nil {
			res.violate("%v", err)
		}
		res.attempted += ph.requests()
	}
	if plain.passes[0].outcome != traced.passes[0].outcome {
		res.violate("traced passes differ from untraced ones")
	}
	var base, withSpans result
	simMetrics(&base, plain)
	simMetrics(&withSpans, traced)
	simCounts(res, traced)
	lad := newLadder()
	if err := runSimLadder(lad, w); err != nil {
		return nil, err
	}
	if err := lad.report(res); err != nil {
		return nil, err
	}
	overhead(res, &base, &withSpans)
	if err := writeSpans(o.spansDir, fmt.Sprintf("trace_sim-seed%d.tsv", o.seed), traced.spans, lad.rec); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// simMetrics reports a phase's end-to-end metrics. The UDP metrics are the
// simulator's Figure 8 accounting, as sim.Result.MessagesPerRequest and
// BytesPerRequest compute it: ICP queries plus DIRUPDATEs, replies not
// counted.
func simMetrics(res *result, ph *simPhase) {
	out := ph.passes[0].outcome // every pass has the same outcome
	reqs := float64(out.Requests)
	res.add("throughput_rps", ph.throughput(), unitRate, fmt.Sprintf("median of %d sim.Run passes", len(ph.passes)))
	res.add("cpu_us_per_req", ph.cpuPerReq(), unitUS, fmt.Sprintf("median of %d sim.Run passes", len(ph.passes)))
	res.add("udp_msgs_per_req", float64(out.QueryMessages+out.UpdateMessages)/reqs, unitPerRq, "simulated queries and DIRUPDATEs")
	res.add("udp_bytes_per_req", float64(out.QueryBytes+out.UpdateBytes)/reqs, unitBPerR, "simulated")
	res.info("false_hit_ratio", float64(out.FalseHits)/reqs, unitRatio, fmt.Sprintf("%d false hits", out.FalseHits))
}

// simCounts reports the per-layer counts of the traced phase from the
// simulator's own counts of the same events.
func simCounts(res *result, ph *simPhase) {
	out := ph.passes[0].outcome
	reqs := float64(out.Requests)
	lookups := float64(out.Requests - out.LocalHits)
	res.addLayer("core.candidates_per_lookup", float64(out.QueryMessages)/lookups, fmt.Sprintf("%d simulated queries / %.0f lookups", out.QueryMessages, lookups))
	res.addLayer("core.query_hit_ratio", queryHitRatio(out.RemoteHits, out.FalseHits), "simulated")
	res.addLayer("core.updates_per_req", float64(out.UpdateMessages)/reqs, "simulated DIRUPDATEs")
	res.addLayer("httpproxy.peer_fetches_per_req", float64(out.RemoteHits)/reqs, "simulated remote hits")
	res.addLayer("httpproxy.origin_fetches_per_req", float64(out.Requests-out.LocalHits-out.RemoteHits)/reqs, "simulated misses")
	res.addLayer("runtime.alloc_bytes_per_req", float64(ph.mem.allocBytes)/float64(ph.requests()), "")
	res.addLayer("runtime.gc_cycles_per_kreq", 1000*float64(ph.mem.gcCycles)/float64(ph.requests()), "")
}
