package resilient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/faults"
	"repro/internal/solve"
)

// testModel is a two-variable unconstrained model: minimize -x0.
func testModel() *cqm.Model {
	m := cqm.New()
	x := m.AddBinary("x")
	m.AddBinary("y")
	m.AddObjectiveLinear(x, -1)
	return m
}

// goodResult builds a self-consistent optimal result for testModel.
func goodResult(m *cqm.Model) *solve.Result {
	sample := make([]bool, m.NumVars())
	sample[0] = true
	return &solve.Result{
		Sample:    sample,
		Objective: m.Objective(sample),
		Feasible:  m.Feasible(sample, 1e-9),
	}
}

// stub is a scripted solve.Solver: fn decides each call's outcome from
// the 0-based call index and the resolved per-solve config.
type stub struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, cfg solve.Config) (*solve.Result, error)
}

func (s *stub) Name() string { return "stub" }

func (s *stub) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	s.mu.Lock()
	call := s.calls
	s.calls++
	s.mu.Unlock()
	return s.fn(call, solve.NewConfig(opts...))
}

func (s *stub) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// failUntil fails the first n calls with err, then succeeds.
func failUntil(m *cqm.Model, n int, err error) *stub {
	return &stub{fn: func(call int, _ solve.Config) (*solve.Result, error) {
		if call < n {
			return nil, fmt.Errorf("attempt %d: %w", call, err)
		}
		return goodResult(m), nil
	}}
}

// alwaysGood succeeds on every call.
func alwaysGood(m *cqm.Model) *stub {
	return &stub{fn: func(int, solve.Config) (*solve.Result, error) { return goodResult(m), nil }}
}

func TestSuccessFirstAttempt(t *testing.T) {
	m := testModel()
	s := New(alwaysGood(m), Options{})
	res, err := s.Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != -1 || !res.Feasible {
		t.Fatalf("result %+v", res)
	}
	st := res.Stats
	if st.Attempts != 1 || st.Retries != 0 || st.Fallbacks != 0 || st.BreakerSkips != 0 {
		t.Fatalf("stats %+v", st)
	}
	tot := s.Policy().Totals()
	if tot.Solves != 1 || tot.Attempts != 1 || tot.Retries != 0 || tot.Fallbacks != 0 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestBackoffScheduleExactOnFakeClock(t *testing.T) {
	m := testModel()
	clk := solve.NewFake(time.Unix(0, 0))
	var waits []time.Duration
	s := New(failUntil(m, 3, faults.ErrTransient), Options{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0, // exact schedule
		OnRetry:     func(_ int, wait time.Duration, _ error) { waits = append(waits, wait) },
	})
	res, err := s.Solve(context.Background(), m, solve.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("waits %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v", i, waits[i], want[i])
		}
	}
	// The fake clock advanced by exactly the backoff total, and Wall
	// reports it.
	if got := clk.Since(time.Unix(0, 0)); got != 70*time.Millisecond {
		t.Fatalf("clock advanced %v, want 70ms", got)
	}
	if res.Stats.Wall != 70*time.Millisecond {
		t.Fatalf("Wall = %v, want 70ms", res.Stats.Wall)
	}
	if res.Stats.Attempts != 4 || res.Stats.Retries != 3 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestBackoffCappedAtMax(t *testing.T) {
	m := testModel()
	clk := solve.NewFake(time.Unix(0, 0))
	var waits []time.Duration
	s := New(failUntil(m, 3, faults.ErrThrottled), Options{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		Multiplier:  2,
		OnRetry:     func(_ int, wait time.Duration, _ error) { waits = append(waits, wait) },
	})
	if _, err := s.Solve(context.Background(), m, solve.WithClock(clk)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v", i, waits[i], want[i])
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	m := testModel()
	run := func(seed int64) []time.Duration {
		clk := solve.NewFake(time.Unix(0, 0))
		var waits []time.Duration
		s := New(failUntil(m, 3, faults.ErrTransient), Options{
			MaxAttempts: 4,
			BaseBackoff: 10 * time.Millisecond,
			Jitter:      0.5,
			Seed:        seed,
			OnRetry:     func(_ int, wait time.Duration, _ error) { waits = append(waits, wait) },
		})
		if _, err := s.Solve(context.Background(), m, solve.WithClock(clk)); err != nil {
			t.Fatal(err)
		}
		return waits
	}
	a, b, c := run(1), run(1), run(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatalf("seeds 1 and 2 produced identical jitter %v", a)
	}
	// Jittered waits stay within [1-J, 1+J] of the nominal value.
	for i, w := range a {
		nominal := 10 * time.Millisecond << i
		lo, hi := time.Duration(float64(nominal)*0.5), time.Duration(float64(nominal)*1.5)
		if w < lo || w > hi {
			t.Fatalf("wait %d = %v outside [%v, %v]", i, w, lo, hi)
		}
	}
}

func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	m := testModel()
	clk := solve.NewFake(time.Unix(0, 0))
	healthy := false
	inner := &stub{fn: func(int, solve.Config) (*solve.Result, error) {
		if healthy {
			return goodResult(m), nil
		}
		return nil, faults.ErrTransient
	}}
	p := NewPolicy(Options{
		MaxAttempts: 2,
		BaseBackoff: 10 * time.Millisecond,
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		Fallback:    alwaysGood(m),
	})
	s := p.Wrap(inner)
	ctx := context.Background()

	// Solve 1: both attempts fail, breaker trips, fallback serves.
	res, err := s.Solve(ctx, m, solve.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fallbacks != 1 || res.Stats.Attempts != 2 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if got := p.Breaker().State(); got != Open {
		t.Fatalf("breaker %v, want open", got)
	}

	// Solve 2, inside the cooldown: skipped entirely, fallback serves.
	res, err = s.Solve(ctx, m, solve.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BreakerSkips != 1 || res.Stats.Attempts != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if inner.count() != 2 {
		t.Fatalf("inner called %d times, want 2 (skip must not submit)", inner.count())
	}

	// Cooldown elapses and the service recovers: the half-open probe is
	// admitted, succeeds, and the breaker closes.
	clk.Advance(60 * time.Millisecond)
	healthy = true
	res, err = s.Solve(ctx, m, solve.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempts != 1 || res.Stats.Fallbacks != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if got := p.Breaker().State(); got != Closed {
		t.Fatalf("breaker %v, want closed after probe success", got)
	}
	tot := p.Totals()
	if tot.Solves != 3 || tot.Attempts != 3 || tot.Retries != 1 ||
		tot.Fallbacks != 2 || tot.BreakerSkips != 1 {
		t.Fatalf("totals %+v", tot)
	}
	if p.Breaker().Trips() != 1 {
		t.Fatalf("trips = %d", p.Breaker().Trips())
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	m := testModel()
	clk := solve.NewFake(time.Unix(0, 0))
	inner := &stub{fn: func(int, solve.Config) (*solve.Result, error) { return nil, faults.ErrTimeout }}
	p := NewPolicy(Options{
		MaxAttempts: 1,
		Breaker:     BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond},
		Fallback:    alwaysGood(m),
	})
	s := p.Wrap(inner)
	if _, err := s.Solve(context.Background(), m, solve.WithClock(clk)); err != nil {
		t.Fatal(err)
	}
	if p.Breaker().State() != Open {
		t.Fatal("breaker should open on first failure with threshold 1")
	}
	clk.Advance(60 * time.Millisecond)
	if _, err := s.Solve(context.Background(), m, solve.WithClock(clk)); err != nil {
		t.Fatal(err)
	}
	if p.Breaker().State() != Open {
		t.Fatal("failed half-open probe must reopen the breaker")
	}
	if p.Breaker().Trips() != 2 {
		t.Fatalf("trips = %d, want 2", p.Breaker().Trips())
	}
}

func TestValidationCatchesCorruptedResponse(t *testing.T) {
	m := testModel()
	lie := func() *solve.Result {
		r := goodResult(m)
		r.Objective = 42 // sample no longer matches the report
		return r
	}
	inner := &stub{fn: func(call int, _ solve.Config) (*solve.Result, error) {
		if call == 0 {
			return lie(), nil
		}
		return goodResult(m), nil
	}}
	clk := solve.NewFake(time.Unix(0, 0))
	s := New(inner, Options{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	res, err := s.Solve(context.Background(), m, solve.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != -1 {
		t.Fatalf("served the corrupted response: %+v", res)
	}
	if res.Stats.Retries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if tot := s.Policy().Totals(); tot.InvalidResponses != 1 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestValidationRejectsShortSample(t *testing.T) {
	m := testModel()
	inner := &stub{fn: func(int, solve.Config) (*solve.Result, error) {
		return &solve.Result{Sample: []bool{true}}, nil
	}}
	s := New(inner, Options{MaxAttempts: 1})
	_, err := s.Solve(context.Background(), m, solve.WithClock(solve.NewFake(time.Unix(0, 0))))
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, ErrInvalidResponse) {
		t.Fatalf("err = %v", err)
	}
}

func TestNonRetryableSurfacesImmediately(t *testing.T) {
	m := testModel()
	boom := errors.New("malformed model")
	inner := &stub{fn: func(int, solve.Config) (*solve.Result, error) { return nil, boom }}
	s := New(inner, Options{MaxAttempts: 3, Fallback: alwaysGood(m)})
	_, err := s.Solve(context.Background(), m)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if inner.count() != 1 {
		t.Fatalf("retried a non-retryable error %d times", inner.count())
	}
	if tot := s.Policy().Totals(); tot.Fallbacks != 0 || tot.Solves != 1 {
		t.Fatalf("totals %+v (fallback must not mask bad input)", tot)
	}
}

func TestExhaustedWithoutFallback(t *testing.T) {
	m := testModel()
	inner := &stub{fn: func(int, solve.Config) (*solve.Result, error) { return nil, faults.ErrTransient }}
	s := New(inner, Options{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	_, err := s.Solve(context.Background(), m, solve.WithClock(solve.NewFake(time.Unix(0, 0))))
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err = %v, want the cause wrapped", err)
	}
	if inner.count() != 2 {
		t.Fatalf("attempts = %d", inner.count())
	}
}

func TestCancelledContextServesFallback(t *testing.T) {
	m := testModel()
	inner := alwaysGood(m)
	s := New(inner, Options{MaxAttempts: 3, Fallback: alwaysGood(m)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Solve(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if inner.count() != 0 {
		t.Fatal("cancelled solve still hit the cloud path")
	}
	if res.Stats.Fallbacks != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestOptionsClockOverrideDrivesBackoff(t *testing.T) {
	m := testModel()
	clk := solve.NewFake(time.Unix(0, 0))
	s := New(failUntil(m, 1, faults.ErrTransient), Options{
		MaxAttempts: 2,
		BaseBackoff: 10 * time.Millisecond,
		Clock:       clk,
	})
	// No WithClock on the call: the policy's own clock must still drive
	// the backoff, leaving real time untouched.
	t0 := time.Now()
	if _, err := s.Solve(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if clk.Since(time.Unix(0, 0)) != 10*time.Millisecond {
		t.Fatalf("fake clock advanced %v", clk.Since(time.Unix(0, 0)))
	}
	if real := time.Since(t0); real > 5*time.Second {
		t.Fatalf("backoff slept on the real clock (%v)", real)
	}
}

func TestPolicySharedAcrossWrappedSolvers(t *testing.T) {
	m := testModel()
	p := NewPolicy(Options{})
	a := p.Wrap(alwaysGood(m))
	b := p.Wrap(alwaysGood(m))
	for _, s := range []solve.Solver{a, b} {
		if _, err := s.Solve(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	if tot := p.Totals(); tot.Solves != 2 || tot.Attempts != 2 {
		t.Fatalf("totals %+v, want both solvers pooled", tot)
	}
}

func TestName(t *testing.T) {
	s := New(alwaysGood(testModel()), Options{})
	if s.Name() != "resilient(stub)" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestFallbackErrorWrapsBoth(t *testing.T) {
	m := testModel()
	failing := &stub{fn: func(int, solve.Config) (*solve.Result, error) { return nil, faults.ErrThrottled }}
	brokenFallback := &stub{fn: func(int, solve.Config) (*solve.Result, error) {
		return nil, errors.New("fallback dead too")
	}}
	s := New(failing, Options{MaxAttempts: 1, Fallback: brokenFallback})
	_, err := s.Solve(context.Background(), m, solve.WithClock(solve.NewFake(time.Unix(0, 0))))
	if err == nil || !errors.Is(err, faults.ErrThrottled) {
		t.Fatalf("err = %v, want the cloud cause preserved", err)
	}
}
