package route

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/cqm"
	"repro/internal/obs"
	"repro/internal/solve"
)

func model() *cqm.Model {
	m := cqm.New()
	v := m.AddBinary("x")
	m.AddObjectiveLinear(v, 1)
	return m
}

// honest returns a correctly attested result for x.
func honest(m *cqm.Model, x []bool) *solve.Result {
	return &solve.Result{Sample: x, Objective: m.Objective(x), Feasible: m.Feasible(x, 1e-6)}
}

// stub is a controllable backend: while degraded it errors (or panics,
// or returns corrupted replies); healthy it answers honestly.
type stub struct {
	name string

	mu       sync.Mutex
	degraded bool
	corrupt  bool
	panics   bool
	solves   int
}

func (s *stub) Name() string { return s.name }

func (s *stub) setDegraded(v bool) {
	s.mu.Lock()
	s.degraded = v
	s.mu.Unlock()
}

func (s *stub) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	s.mu.Lock()
	s.solves++
	degraded, corrupt, panics := s.degraded, s.corrupt, s.panics
	s.mu.Unlock()
	if degraded {
		if panics {
			panic("stub backend crash")
		}
		if corrupt {
			// A reply whose claims do not match its sample: caught only
			// by independent verification.
			return &solve.Result{Sample: []bool{true}, Objective: -5, Feasible: true}, nil
		}
		return nil, errors.New("stub backend unavailable")
	}
	return honest(m, []bool{false}), nil
}

// TestUniformSplitWhenHealthy pins the smooth weighted round-robin on
// equal weights: two healthy backends split traffic evenly.
func TestUniformSplitWhenHealthy(t *testing.T) {
	m := model()
	a, b := &stub{name: "a"}, &stub{name: "b"}
	r, err := New(Options{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := r.Solve(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	for _, tl := range r.Tallies() {
		if tl.Picks < n/2-1 || tl.Picks > n/2+1 {
			t.Fatalf("backend %s picks = %d, want ~%d of %d", tl.Backend, tl.Picks, n/2, n)
		}
		if tl.OK != tl.Picks {
			t.Fatalf("backend %s ok = %d, want %d", tl.Backend, tl.OK, tl.Picks)
		}
	}
}

// TestDegradedBackendShedsTrafficThenRecovers is the acceptance
// criterion for failure-aware routing: a backend with a high fault rate
// drops below its fair share while still receiving floor-weight probes,
// then earns its share back once the faults stop.
func TestDegradedBackendShedsTrafficThenRecovers(t *testing.T) {
	m := model()
	good := &stub{name: "good"}
	bad := &stub{name: "bad"}
	bad.setDegraded(true)
	r, err := New(Options{}, good, bad)
	if err != nil {
		t.Fatal(err)
	}

	solveN := func(n int) {
		for i := 0; i < n; i++ {
			// Degraded-phase solves routed to bad fail over to good;
			// bad's picks count only the solves routed to it first.
			if _, err := r.Solve(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
	}

	const degradedN = 300
	solveN(degradedN)
	tallies := func() map[string]Tally {
		out := make(map[string]Tally)
		for _, tl := range r.Tallies() {
			out[tl.Backend] = tl
		}
		return out
	}
	ts := tallies()
	fair := int64(degradedN / 2)
	if ts["bad"].Picks >= fair {
		t.Fatalf("degraded backend kept %d/%d picks, want below fair share %d", ts["bad"].Picks, int64(degradedN), fair)
	}
	if ts["bad"].Picks < 5 {
		t.Fatalf("degraded backend got %d probes, want floor-weight probe traffic", ts["bad"].Picks)
	}
	if w := ts["bad"].Weight; w > 2*floorShare+1e-9 {
		t.Fatalf("degraded backend weight = %g, want pinned near floor %g", w, floorShare)
	}

	// Recovery: faults stop; floor probes succeed, the failure EWMA
	// decays, and the backend's share climbs back.
	bad.setDegraded(false)
	before := ts["bad"].Picks
	const healedN = 500
	solveN(healedN)
	ts = tallies()
	healedPicks := ts["bad"].Picks - before
	if healedPicks < healedN/4 {
		t.Fatalf("recovered backend served %d of %d healed solves, want at least %d", healedPicks, healedN, healedN/4)
	}
	if w := ts["bad"].Weight; w < 0.4 {
		t.Fatalf("recovered backend weight = %g, want >= 0.4", w)
	}
}

// TestFailoverServesFromSecondBackend: a solve that fails on the picked
// backend is retried on the next one and still succeeds.
func TestFailoverServesFromSecondBackend(t *testing.T) {
	m := model()
	bad := &stub{name: "bad"}
	bad.setDegraded(true)
	good := &stub{name: "good"}
	r, err := New(Options{}, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Objective != 0 {
		t.Fatalf("failover result = %+v", res)
	}
}

// TestCorruptReplyRejectedAndPanicsContained: verification rejects a
// corrupted reply and panic isolation converts a crash into a loss;
// both are tallied and both fail over.
func TestCorruptReplyRejectedAndPanicsContained(t *testing.T) {
	m := model()
	corrupt := &stub{name: "corrupt", corrupt: true}
	corrupt.setDegraded(true)
	crashing := &stub{name: "crashing", panics: true}
	crashing.setDegraded(true)
	good := &stub{name: "good"}
	r, err := New(Options{}, corrupt, crashing, good)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		res, err := r.Solve(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("result = %+v", res)
		}
	}
	ts := map[string]Tally{}
	for _, tl := range r.Tallies() {
		ts[tl.Backend] = tl
	}
	if ts["corrupt"].Rejects == 0 {
		t.Fatalf("corrupt backend rejects = 0, want > 0 (tallies %+v)", ts)
	}
	if ts["crashing"].Panics == 0 || ts["crashing"].Errors == 0 {
		t.Fatalf("crashing backend panics/errors = %d/%d, want > 0", ts["crashing"].Panics, ts["crashing"].Errors)
	}
	if ts["good"].OK != 6 {
		t.Fatalf("good backend ok = %d, want 6", ts["good"].OK)
	}
}

// TestAllBackendsFailing surfaces ErrAllFailed with joined causes.
func TestAllBackendsFailing(t *testing.T) {
	m := model()
	bad := &stub{name: "bad"}
	bad.setDegraded(true)
	r, err := New(Options{}, bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Solve(context.Background(), m)
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
}

// TestGatedRejectsOversizedModels: the size guard fails fast with
// ErrTooLarge and passes small models through.
func TestGatedRejectsOversizedModels(t *testing.T) {
	m := model() // 1 variable
	inner := &stub{name: "quantum"}
	g := Gated(inner, 0) // 0 = no limit
	if _, err := g.Solve(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	big := cqm.New()
	for i := 0; i < 4; i++ {
		big.AddBinary("x")
	}
	g = Gated(inner, 3)
	_, err := g.Solve(context.Background(), big)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if _, err := g.Solve(context.Background(), m); err != nil {
		t.Fatalf("small model through gate: %v", err)
	}
}

// TestRouterPublishesWeightsToObs: the routing table is visible in the
// registry the router was built with.
func TestRouterPublishesWeightsToObs(t *testing.T) {
	m := model()
	reg := obs.NewRegistry()
	a, b := &stub{name: "a"}, &stub{name: "b"}
	r, err := New(Options{Obs: reg}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Solve(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("route.backend.a.weight").Value() + reg.Gauge("route.backend.b.weight").Value(); v < 0.99 || v > 1.01 {
		t.Fatalf("published weights sum to %g, want ~1", v)
	}
	if reg.Counter("route.backend.a.picks").Value()+reg.Counter("route.backend.b.picks").Value() != 1 {
		t.Fatal("exactly one pick counter should have incremented")
	}
}

// TestRouterMetricsMatchTallies: after every solve the registry already
// holds the routing table the router acts on — the gauges are read
// before Tallies() — and every counter in it is the router's own.
func TestRouterMetricsMatchTallies(t *testing.T) {
	m := model()
	reg := obs.NewRegistry()
	good, bad := &stub{name: "good"}, &stub{name: "bad"}
	bad.setDegraded(true)
	r, err := New(Options{Obs: reg}, good, bad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Solve(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		gauges := map[string]float64{}
		for _, g := range reg.Snapshot().Gauges {
			gauges[g.Name] = g.Value
		}
		for _, tl := range r.Tallies() {
			for metric, want := range map[string]float64{
				"weight": tl.Weight, "fail_ewma": tl.FailRate, "latency_ewma_ms": tl.LatencyMs,
			} {
				name := "route.backend." + tl.Backend + "." + metric
				if got, ok := gauges[name]; !ok || got != want {
					t.Fatalf("solve %d: gauge %s = %g (published %v), tally says %g", i+1, name, got, ok, want)
				}
			}
		}
	}
	if tl := r.Tallies()[1]; tl.Backend != "bad" || tl.Errors == 0 || tl.FailRate == 0 {
		t.Fatalf("failing backend never routed to: %+v", tl)
	}
	for _, c := range reg.Snapshot().Counters {
		if !strings.HasPrefix(c.Name, "route.") {
			t.Errorf("registry counter %s = %d was not recorded by the router", c.Name, c.Value)
		}
	}
}

// TestSerializedGuardsConcurrentUse just exercises the wrapper under
// the race detector.
func TestSerializedGuardsConcurrentUse(t *testing.T) {
	m := model()
	s := Serialized(&stub{name: "nt"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Solve(context.Background(), m); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
