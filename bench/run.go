package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxLagShare bounds the generator's lateness at the 99th percentile as
// a share of the workload's latency limit. Beyond it the open loop no
// longer sent on its schedule and the run is invalid. (On a shared
// 2-core machine the operating system alone delays a woken thread by
// 2-3 ms at the 99th percentile, so a fixed 2 ms gate rejects healthy
// runs.)
const maxLagShare = 0.2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers reported for reading but not compared: tail
	// percentiles too noisy from run to run to gate on, sample counts,
	// generator lag.
	Info       map[string]metric `json:"info,omitempty"`
	Tallies    []tally           `json:"tallies"`
	Violations []string          `json:"violations,omitempty"`
	Invalid    []string          `json:"invalid,omitempty"`
}

// env locates the repository and the benchmark's working directories.
type env struct {
	root  string // repository root
	work  string // binaries and daemon state (.bench_build)
	out   string // results and span files (bench/out)
	conns int    // load generator connection cap and closed-loop callers
	bin   string // qulrbd binary, built on first use
}

// finish fills the verdict fields from the checker and validity notes.
func (r *runResult) finish(ck *checker, invalid []string) {
	r.Tallies = ck.tallies
	r.Attempted = max(ck.attempted(), 1)
	r.Failed = ck.violations
	r.Violations = ck.listed
	r.Invalid = invalid
	r.Correct = ck.violations == 0 && len(invalid) == 0
}

// e2eInput is what the end-to-end metrics are computed from.
type e2eInput struct {
	setup    []time.Duration
	closed   []outcome
	closedOK []bool
	open     []outcome
	openOK   []bool
	cpu      time.Duration
	rssMiB   float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics and the informational
// numbers, and lists what makes the run invalid: a reported percentile
// without enough samples beyond it, or a generator that ran late.
//
// Latency is gated at the median and the 75th percentile. The 90th and
// 99th percentiles are reported as information only: on a shared
// 2-core machine they moved by 20-50% (quartile spread over ten seeds)
// between runs of one commit, because a handful of events decide them
// (plan-cache misses queued together on the two workers, journal
// compactions, the host's own stalls).
func endToEnd(w *workload, in e2eInput) (m, info map[string]metric, invalid []string) {
	m, info = map[string]metric{}, map[string]metric{}
	setup := make([]float64, len(in.setup))
	for i, d := range in.setup {
		setup[i] = d.Seconds()
	}
	_, med, _ := quartiles(setup)
	m["setup_s"] = metric{med, "s"}

	closedPlans := int(okCount(in.closedOK))
	m["closed_loop_rps"] = metric{closedRPS(in.closed, in.closedOK), "plans/s"}

	var lat, lag, imb, spd []float64
	met := 0
	for i := range in.open {
		o := &in.open[i]
		lag = append(lag, ms(o.sent.Sub(o.due)))
		if !in.openOK[i] {
			continue
		}
		l := ms(o.latency())
		lat = append(lat, l)
		if l <= w.limitMs {
			met++
		}
		imb = append(imb, o.job.Metrics.ImbalanceAfter)
		spd = append(spd, o.job.Metrics.Speedup)
	}
	for _, p := range []struct {
		name  string
		q     float64
		gated bool
	}{{"latency_p50_ms", 0.5, true}, {"latency_p75_ms", 0.75, true}, {"latency_p90_ms", 0.9, false}, {"latency_p99_ms", 0.99, false}} {
		v, ok := percentile(lat, p.q)
		switch {
		case p.gated:
			if !ok {
				invalid = append(invalid, fmt.Sprintf("%s: fewer than %d of %d samples beyond it", p.name, minBeyond, len(lat)))
			}
			m[p.name] = metric{v, "ms"}
		case ok:
			info[p.name] = metric{v, "ms"}
		}
	}
	info["latency_samples"] = metric{float64(len(lat)), "count"}
	m["slo_met_share"] = metric{float64(met) / float64(len(in.open)), "ratio"}
	m["imbalance_after_mean"] = metric{mean(imb), "R_imb"}
	m["speedup_mean"] = metric{mean(spd), "x"}
	m["cpu_ms_per_plan"] = metric{ms(in.cpu) / float64(max(closedPlans+len(lat), 1)), "ms"}
	m["peak_rss_mb"] = metric{in.rssMiB, "MiB"}
	// The lag percentile is a validity gate, taken at any sample size.
	lag99, _ := percentile(lag, 0.99)
	info["client.lag_p99_ms"] = metric{lag99, "ms"}
	if limit := maxLagShare * w.limitMs; lag99 > limit {
		invalid = append(invalid, fmt.Sprintf("client lag p99 %.3f ms exceeds %.3g ms", lag99, limit))
	}
	return m, info, invalid
}

// runDaemon measures one workload against a qulrbd process:
// start, closed-loop warm-up, kill -9, timed restarts on the same state
// directory, retained-job check, closed loop, open loop, resource
// readout, SIGTERM.
func runDaemon(e *env, w *workload, seed int64, seconds int) (*runResult, error) {
	if e.bin == "" {
		bin, err := buildDaemon(e.root, e.work)
		if err != nil {
			return nil, err
		}
		e.bin = bin
	}
	src, err := w.source(seed)
	if err != nil {
		return nil, err
	}
	pp := w.plan(seconds)
	dir, err := os.MkdirTemp(e.work, "state-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	state, logPath := filepath.Join(dir, "state"), filepath.Join(dir, "qulrbd.log")

	ck := &checker{}
	res := &runResult{Workload: w.name, Seed: seed}
	d, _, err := startDaemon(e.bin, state, logPath, w.flags)
	if err != nil {
		return nil, err
	}
	// Whatever happens below, no daemon outlives this function.
	live := d
	defer func() {
		if live != nil {
			live.kill()
		}
	}()

	c := newClient(d.base, e.conns)
	warm := closedLoop(c, src, streamWarmup, e.conns, 0, pp.warmup)
	c.close()
	ck.phase("warmup", warm)

	var in e2eInput
	for r := 0; r < restarts; r++ {
		live.kill()
		live = nil
		nd, took, err := startDaemon(e.bin, state, logPath, w.flags)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", r+1, err)
		}
		live = nd
		in.setup = append(in.setup, took)
	}
	c = newClient(live.base, e.conns)
	defer c.close()
	ck.retained(c, warm)

	cpu0, err := live.cpuTime()
	if err != nil {
		return nil, err
	}
	in.closed = closedLoop(c, src, streamClosed, e.conns, pp.closed, 0)
	in.closedOK = ck.phase("closed", in.closed)
	in.open = openLoop(c, src, seed, pp.rate, pp.open)
	in.openOK = ck.phase("open", in.open)
	cpu1, err := live.cpuTime()
	if err != nil {
		return nil, err
	}
	in.cpu = cpu1 - cpu0
	if in.rssMiB, err = live.peakRSS(); err != nil {
		return nil, err
	}
	c.close()
	err = live.terminate()
	live = nil
	if err != nil {
		ck.fail("shutdown: %v", err)
	}

	var invalid []string
	res.Metrics, res.Info, invalid = endToEnd(w, in)
	res.finish(ck, invalid)
	return res, nil
}

// sortedNames returns a metric map's names in order, for printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// closedRPS is the closed loop's verified plans per second, from the
// first send to the last completion.
func closedRPS(outs []outcome, ok []bool) float64 {
	if len(outs) == 0 {
		return 0
	}
	start, end := outs[0].due, outs[0].end
	for _, o := range outs {
		if o.due.Before(start) {
			start = o.due
		}
		if o.end.After(end) {
			end = o.end
		}
	}
	return okCount(ok) / max(end.Sub(start).Seconds(), 1e-9)
}
