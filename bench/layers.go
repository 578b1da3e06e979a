package main

import (
	"runtime"
	"strings"
)

// layerInput is what the per-layer metrics are computed from: the
// spans and counter deltas of the traced phase, the restart's timed
// constructors, and the stage probe.
type layerInput struct {
	spans         []span
	before, after counters
	mem0, mem1    runtime.MemStats
	setup         setupTimes
	replayed      int // records both journals replayed at the restart
	probe         probeResult
	verify        []float64 // the bench's own verify.Plan durations (µs)
	offRPS, onRPS float64   // closed-loop throughput untraced and traced
	traced        []outcome // every request of the traced phase
	tracedOK      []bool
	open          []outcome
}

// layerMetrics names each metric after the module it measures. Ratios
// "per plan" divide by the verified plans served in the traced phase.
func layerMetrics(in layerInput) map[string]metric {
	m := map[string]metric{}
	plans := max(okCount(in.tracedOK), 1)

	var httpSolve, httpJob, jobBytes, serveAppend, cacheAppend []float64
	var compactions float64
	childUs := map[int64]float64{} // route span id -> engine time inside it
	var engineMs []float64
	var flips, engineUs, reads, feasibleReads, interrupted float64
	var routes []span
	for i := range in.spans {
		s := &in.spans[i]
		switch {
		case s.Name == "http.solve":
			httpSolve = append(httpSolve, s.us())
		case s.Name == "http.job":
			httpJob = append(httpJob, s.us())
			jobBytes = append(jobBytes, float64(s.Bytes))
		case s.Name == "wal.serve.append":
			serveAppend = append(serveAppend, s.us())
		case s.Name == "wal.plancache.append":
			cacheAppend = append(cacheAppend, s.us())
		case strings.HasSuffix(s.Name, ".compact"):
			compactions++
		case s.Name == "route":
			routes = append(routes, *s)
		case strings.HasPrefix(s.Name, "engine."):
			childUs[s.Parent] += s.us()
			engineMs = append(engineMs, s.us()/1000)
			engineUs += s.us()
			flips += float64(s.Flips)
			reads += float64(s.Reads)
			feasibleReads += float64(s.FeasibleReads)
			if s.Interrupted {
				interrupted++
			}
		}
	}
	var routeSelf []float64
	for _, r := range routes {
		routeSelf = append(routeSelf, r.us()-childUs[r.ID])
	}

	var queueWait, run, lag []float64
	polls := 0.0
	for i := range in.traced {
		if !in.tracedOK[i] {
			continue
		}
		o := &in.traced[i]
		queueWait = append(queueWait, o.job.QueueWaitMs)
		run = append(run, o.job.Metrics.WallMs)
		polls += float64(o.polls)
	}
	for i := range in.open {
		lag = append(lag, ms(in.open[i].sent.Sub(in.open[i].due)))
	}

	d := func(f func(c counters) int64) float64 { return float64(f(in.after) - f(in.before)) }
	hits, misses := d(func(c counters) int64 { return c.hits }), d(func(c counters) int64 { return c.misses })
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("serve.http_solve_us_mean", "us", mean(httpSolve))
	set("serve.http_job_us_mean", "us", mean(httpJob))
	set("serve.job_bytes_mean", "bytes", mean(jobBytes))
	set("serve.queue_wait_ms_mean", "ms", mean(queueWait))
	set("serve.run_ms_mean", "ms", mean(run))
	set("serve.polls_per_plan", "count", polls/plans)
	set("serve.new_ms", "ms", ms(in.setup.serveNew))

	set("wal.serve_append_us_mean", "us", mean(serveAppend))
	set("wal.plancache_append_us_mean", "us", mean(cacheAppend))
	set("wal.serve_appends_per_plan", "count", float64(len(serveAppend))/plans)
	set("wal.syncs_per_plan", "count", d(func(c counters) int64 { return c.syncs })/plans)
	set("wal.compactions", "count", compactions)
	set("wal.open_ms", "ms", ms(in.setup.walOpen))
	set("wal.replayed_records", "count", float64(in.replayed))

	set("plancache.hit_share", "ratio", hits/max(hits+misses, 1))
	set("plancache.evictions_per_plan", "count", d(func(c counters) int64 { return c.evictions })/plans)
	set("plancache.load_ms", "ms", ms(in.setup.cacheLoad))
	set("plancache.restored_entries", "count", float64(in.setup.restored))
	set("plancache.load_rejects", "count", float64(in.setup.rejected))

	set("route.self_us_mean", "us", mean(routeSelf))
	set("route.failovers_per_solve", "count", (d(func(c counters) int64 { return c.picks })-float64(len(routes)))/max(float64(len(routes)), 1))

	set("engine.solve_ms_mean", "ms", mean(engineMs))
	set("engine.flips_per_s", "1/s", flips/max(engineUs/1e6, 1e-9))
	set("engine.flips_per_solve", "count", flips/max(float64(len(engineMs)), 1))
	set("engine.feasible_read_share", "ratio", feasibleReads/max(reads, 1))
	set("engine.interrupted_share", "ratio", interrupted/max(float64(len(engineMs)), 1))

	set("qlrb.build_ms", "ms", in.probe.buildMs)
	set("qlrb.build_allocs", "count", in.probe.buildAllocs)
	set("qlrb.sample_ms", "ms", in.probe.sampleMs)
	set("qlrb.decode_ms", "ms", in.probe.decodeMs)
	set("qlrb.verify_us", "us", in.probe.verifyUs)
	set("qlrb.qubits", "count", in.probe.qubits)
	set("cqm.presolve_ms", "ms", in.probe.presolveMs)
	set("verify.plan_us_mean", "us", mean(in.verify))

	set("runtime.allocs_per_plan", "count", float64(in.mem1.Mallocs-in.mem0.Mallocs)/plans)
	set("runtime.bytes_per_plan", "bytes", float64(in.mem1.TotalAlloc-in.mem0.TotalAlloc)/plans)
	set("runtime.gc_per_kplan", "count", 1000*float64(in.mem1.NumGC-in.mem0.NumGC)/plans)
	set("client.lag_mean_ms", "ms", mean(lag))
	set("trace.overhead_pct", "%", 100*(in.offRPS/in.onRPS-1))
	return m
}
