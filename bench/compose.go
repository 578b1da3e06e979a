package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cqm"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/qlrb"
	"repro/internal/route"
	"repro/internal/sa"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/wal"
)

// engine builds the backend cmd/qulrbd builds for the flags, with its
// default -sweeps 400 and -seed 1.
func engine(f daemonFlags) solve.Solver {
	if f.backend == "sa" {
		return &sa.Engine{Base: sa.Options{Sweeps: 400, Penalty: 5, PenaltyGrowth: 4, Seed: 1}}
	}
	return hybrid.New(hybrid.Options{Reads: 2, Sweeps: 400, Seed: 2})
}

// system is the in-process composition cmd/qulrbd builds for one
// workload's flags, with the bench's timing wrappers at every layer
// boundary, served on a loopback listener.
type system struct {
	reg      *obs.Registry
	logs     [2]*wal.Log // serve, plancache
	cache    *plancache.Cache
	router   *route.Router
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	setup    setupTimes
	replayed int
}

// setupTimes are the timed constructor calls of one (re)start.
type setupTimes struct {
	walOpen, cacheLoad, serveNew time.Duration
	restored, rejected           int
}

// compose builds the system on dir, timing wal.Open, Cache.Load and
// serve.New. Like cmd/qulrbd, both logs live in the same directory.
func compose(f daemonFlags, dir string, t *tracer) (*system, error) {
	s := &system{reg: obs.NewRegistry()}
	e := engine(f)
	router, err := route.New(route.Options{Obs: s.reg, Name: "qulrbd"}, &tracedSolver{inner: e, name: "engine." + e.Name(), t: t})
	if err != nil {
		return nil, err
	}
	s.router = router

	t0 := time.Now()
	serveLog, serveRecs, err := wal.Open(wal.Options{Dir: dir, Name: "serve", Policy: wal.SyncAlways, Obs: s.reg})
	if err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	cacheLog, cacheRecs, err := wal.Open(wal.Options{Dir: dir, Name: "plancache", Policy: wal.SyncAlways, Obs: s.reg})
	if err != nil {
		serveLog.Close()
		return nil, fmt.Errorf("plan-cache journal: %w", err)
	}
	s.setup.walOpen = time.Since(t0)
	s.logs = [2]*wal.Log{serveLog, cacheLog}
	s.replayed = len(serveRecs) + len(cacheRecs)

	t1 := time.Now()
	s.cache = plancache.New(plancache.Config{
		Capacity: f.cache, Epsilon: plancache.DefaultEpsilon, Obs: s.reg,
		Journal: &tracedLog{log: cacheLog, name: "plancache", t: t},
	})
	if len(cacheRecs) > 0 {
		s.setup.restored, s.setup.rejected = s.cache.Load(cacheRecs)
	}
	s.setup.cacheLoad = time.Since(t1)

	maxBudget := f.maxBudget
	if maxBudget == 0 {
		maxBudget = 10 * time.Second
	}
	t2 := time.Now()
	s.srv, err = serve.New(serve.Options{
		Cache:         s.cache,
		Backend:       &tracedSolver{inner: router, name: "route", root: true, t: t},
		Obs:           s.reg,
		QueueDepth:    64,
		Workers:       2,
		NoRateLimit:   true,
		DefaultBudget: 2 * time.Second,
		MaxBudget:     maxBudget,
		Limits:        serve.Limits{MaxProcs: 64},
		Journal:       &tracedLog{log: serveLog, name: "serve", t: t},
		Recover:       serveRecs,
	})
	s.setup.serveNew = time.Since(t2)
	if err != nil {
		s.closeLogs()
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Drain(context.Background())
		s.closeLogs()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: t.handler(serve.Handler(s.srv))}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *system) closeLogs() error {
	return errors.Join(s.logs[0].Close(), s.logs[1].Close())
}

// stop shuts the system down the way qulrbd does on SIGTERM: stop
// accepting connections, drain the queue, close the journals.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := []error{s.hs.Shutdown(ctx), s.srv.Drain(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.closeLogs())
	return errors.Join(errs...)
}

// counters snapshots the cumulative counters the per-layer metrics
// take deltas of.
type counters struct {
	syncs, hits, misses, evictions, picks int64
}

func (s *system) counters() counters {
	st := s.cache.Stats()
	c := counters{hits: st.Hits, misses: st.Misses, evictions: st.Evictions}
	for _, name := range []string{"serve", "plancache"} {
		c.syncs += s.reg.Counter("wal." + name + ".syncs").Value()
	}
	for _, t := range s.router.Tallies() {
		c.picks += t.Picks
	}
	return c
}

// runTraced runs one workload against the in-process composition:
// warm-up, a clean restart on the same state directory (timed per
// constructor), the retained-job check, a closed loop whose first half
// runs untraced and second half traced, and a traced open loop. Then a
// direct stage probe solves pp.probe instances through qlrb.Pipeline's
// stages one at a time.
func runTraced(e *env, w *workload, seed int64, pp phasePlan) (*runResult, error) {
	src, err := w.source(seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "traced-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := newTracer()
	ck := &checker{}
	res := &runResult{Workload: w.name, Seed: seed, Trace: true}

	sys, err := compose(w.flags, dir, t)
	if err != nil {
		return nil, err
	}
	c := newClient(sys.base, e.conns)
	warm := closedLoop(c, src, streamWarmup, e.conns, 0, pp.warmup)
	c.close()
	ck.phase("warmup", warm)
	if err := sys.stop(); err != nil {
		ck.fail("shutdown before restart: %v", err)
	}
	if sys, err = compose(w.flags, dir, t); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	c = newClient(sys.base, e.conns)
	ck.retained(c, warm)

	off := closedLoop(c, src, streamClosed, e.conns, pp.closed/2, 0)
	offOK := ck.phase("closed", off)
	before := sys.counters()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	t.on.Store(true)
	on := closedLoop(c, src, streamTraced, e.conns, pp.closed/2, 0)
	open := openLoop(c, src, seed, pp.rate, pp.open)
	t.on.Store(false)
	runtime.ReadMemStats(&mem1)
	after := sys.counters()
	onOK := ck.phase("traced", on)
	openOK := ck.phase("open", open)
	c.close()
	if err := sys.stop(); err != nil {
		ck.fail("shutdown: %v", err)
	}

	probe, err := stageProbe(w.flags, src, pp.probe)
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(e.out, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}

	in := layerInput{
		spans:    t.snapshot(),
		before:   before,
		after:    after,
		mem0:     mem0,
		mem1:     mem1,
		setup:    sys.setup,
		replayed: sys.replayed,
		probe:    probe,
		verify:   ck.verifyUs,
		offRPS:   closedRPS(off, offOK),
		onRPS:    closedRPS(on, onOK),
		traced:   append(on, open...),
		tracedOK: append(onOK, openOK...),
		open:     open,
	}
	res.Metrics = layerMetrics(in)
	res.finish(ck, nil)
	return res, nil
}

// probeResult is the mean cost of each pipeline stage over the probe
// instances.
type probeResult struct {
	buildMs, buildAllocs, presolveMs, sampleMs, decodeMs, verifyUs, qubits float64
}

// stageProbe solves n instances of the workload through the staged
// pipeline on one goroutine, timing each stage, with the allocation
// count of the build stage.
func stageProbe(f daemonFlags, src source, n int) (probeResult, error) {
	var p probeResult
	eng := engine(f)
	for i := 0; i < n; i++ {
		r := src(streamProbe, i)
		pl := qlrb.Pipeline{
			Build:  qlrb.BuildOptions{K: r.k},
			Solver: func(*qlrb.Encoded) solve.Solver { return eng },
			Opts:   []solve.Option{solve.WithSeed(reqSeed(streamProbe, i))},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		enc, err := pl.BuildStage(r.in)
		build := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return p, fmt.Errorf("probe build: %w", err)
		}
		t0 = time.Now()
		if _, err := cqm.Presolve(enc.Model); err != nil {
			return p, fmt.Errorf("probe presolve: %w", err)
		}
		presolve := time.Since(t0)
		t0 = time.Now()
		sample, err := pl.SampleStage(context.Background(), enc)
		if err != nil {
			return p, fmt.Errorf("probe sample: %w", err)
		}
		sampled := time.Since(t0)
		t0 = time.Now()
		plan, _, err := pl.DecodeStage(enc, sample)
		if err != nil {
			return p, fmt.Errorf("probe decode: %w", err)
		}
		decode := time.Since(t0)
		t0 = time.Now()
		if err := pl.VerifyStage(r.in, plan); err != nil {
			return p, fmt.Errorf("probe verify: %w", err)
		}
		verify := time.Since(t0)
		p.buildMs += ms(build)
		p.buildAllocs += float64(m1.Mallocs - m0.Mallocs)
		p.presolveMs += ms(presolve)
		p.sampleMs += ms(sampled)
		p.decodeMs += ms(decode)
		p.verifyUs += float64(verify) / float64(time.Microsecond)
		p.qubits += float64(enc.Model.NumVars())
	}
	k := float64(max(n, 1))
	p.buildMs, p.buildAllocs, p.presolveMs = p.buildMs/k, p.buildAllocs/k, p.presolveMs/k
	p.sampleMs, p.decodeMs, p.verifyUs, p.qubits = p.sampleMs/k, p.decodeMs/k, p.verifyUs/k, p.qubits/k
	return p, nil
}
