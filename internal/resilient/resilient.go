// Package resilient hardens the cloud solver path against the failures
// internal/faults models (and real services exhibit): it wraps any
// solve.Solver with retry + exponential backoff + jitter, response
// validation, a circuit breaker, and graceful degradation to a local
// classical fallback solver — so a feasible (possibly worse) result is
// always returned and a BSP rebalancing loop never dies to a cloud
// outage.
//
// All timing is driven by the injected solve.Clock: backoff sleeps via
// Clock.Sleep and the breaker's cooldown is measured on Clock.Now, so
// the fake clock makes every schedule deterministic in tests. Jitter is
// drawn from a seeded RNG and is likewise reproducible.
//
// The Policy holds the configuration and the state that must persist
// across solves (breaker, cumulative counters); Wrap binds it to an
// inner solver. Per-solve counters are reported in the result's
// solve.Stats (Attempts/Retries/Fallbacks/BreakerSkips) so experiments
// can plot quality-vs-fault-rate degradation curves.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cqm"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/solve"
	"repro/internal/verify"
)

// Sentinel errors of the resilience layer; call sites wrap them with %w.
var (
	// ErrBreakerOpen marks an attempt skipped because the circuit
	// breaker was open (and no fallback was configured).
	ErrBreakerOpen = errors.New("resilient: circuit breaker open")
	// ErrInvalidResponse marks a response whose sample does not match
	// its reported objective/feasibility (a corrupted cloud reply).
	ErrInvalidResponse = errors.New("resilient: invalid solver response")
	// ErrExhausted marks a solve whose retry budget ran out with no
	// usable result (and no fallback was configured).
	ErrExhausted = errors.New("resilient: attempts exhausted")
)

// Options tunes the resilience policy.
type Options struct {
	// MaxAttempts bounds cloud submissions per solve (default 3).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter randomizes each backoff by a factor in [1-Jitter, 1+Jitter]
	// (default 0.1); the draw is seeded, hence reproducible.
	Jitter float64
	// Seed drives the jitter RNG when the per-solve options carry no
	// seed of their own.
	Seed int64
	// Breaker configures the circuit breaker (zero Threshold disables).
	Breaker BreakerConfig
	// Clock, when non-nil, overrides the per-solve clock for the
	// resilience layer's own timing (backoff sleeps, breaker cooldown,
	// reported Wall). Pass a solve.Fake to make retry and breaker
	// schedules fully deterministic — real time spent inside the inner
	// solver then no longer influences breaker decisions. The inner
	// solver keeps the caller's clock.
	Clock solve.Clock
	// Fallback is the local classical solver (typically sa or tabu)
	// serving the request when the cloud path is exhausted or the
	// breaker is open. Nil means failures surface as errors.
	Fallback solve.Solver
	// OnRetry, when non-nil, observes each backoff: the attempt number
	// just failed (1-based), the wait before the next one, and the
	// failure. Useful for logs and for asserting exact schedules.
	OnRetry func(attempt int, wait time.Duration, err error)
	// OnFallback, when non-nil, observes degradations with the error
	// that caused them.
	OnFallback func(err error)
}

// DefaultOptions returns the retry/breaker settings described in
// DESIGN.md's failure model: 3 attempts, 50ms..2s exponential backoff
// with 10% jitter, breaker opening after 5 consecutive failures for 30s.
func DefaultOptions() Options {
	return Options{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Multiplier:  2,
		Jitter:      0.1,
		Breaker:     BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second},
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = d.BaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = d.MaxBackoff
	}
	if o.Multiplier < 1 {
		o.Multiplier = d.Multiplier
	}
	if o.Jitter < 0 || o.Jitter >= 1 {
		o.Jitter = 0
	}
	return o
}

// Totals are the policy's cumulative counters across every solve it
// served — what a long-running rebalancing loop reports at the end.
type Totals struct {
	// Solves counts Solve calls served by the policy.
	Solves int
	// Attempts counts cloud submissions (including successful ones).
	Attempts int
	// Retries counts re-submissions after a failed attempt.
	Retries int
	// Fallbacks counts solves served by the classical fallback.
	Fallbacks int
	// BreakerSkips counts attempts skipped on an open breaker.
	BreakerSkips int
	// InvalidResponses counts corrupted replies caught by validation.
	InvalidResponses int
	// Panics counts inner-solver panics recovered by the isolation
	// layer (each also counts as a failed, retryable attempt).
	Panics int
}

// Policy holds the resilience configuration plus the state that must
// persist across solves: the circuit breaker and the cumulative
// counters. One policy is shared by every solver it wraps, so a
// rebalancing loop that builds a fresh engine per iteration still
// accumulates breaker history. Policy is safe for concurrent use.
type Policy struct {
	opt     Options
	breaker *Breaker

	mu     sync.Mutex
	totals Totals
}

// NewPolicy resolves opt over defaults and returns a fresh policy.
func NewPolicy(opt Options) *Policy {
	o := opt.withDefaults()
	return &Policy{opt: o, breaker: NewBreaker(o.Breaker)}
}

// Wrap binds the policy to an inner solver. The returned solver shares
// the policy's breaker and counters with every other solver the policy
// wrapped. The inner solver runs behind solve.Protected: a panicking
// backend is recovered into a retryable error instead of crashing the
// process.
func (p *Policy) Wrap(inner solve.Solver) solve.Solver {
	return &Solver{inner: solve.Protected(inner), p: p}
}

// Totals returns the cumulative counters across all served solves.
func (p *Policy) Totals() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

// Breaker exposes the shared circuit breaker (for state reporting).
func (p *Policy) Breaker() *Breaker { return p.breaker }

// Solver wraps an inner solve.Solver with a policy. Construct with
// Policy.Wrap, or New for the single-solver case.
type Solver struct {
	inner solve.Solver
	p     *Policy
}

// New wraps inner in a fresh policy resolved from opt. As with Wrap,
// the inner solver runs behind solve.Protected.
func New(inner solve.Solver, opt Options) *Solver {
	return &Solver{inner: solve.Protected(inner), p: NewPolicy(opt)}
}

// Policy returns the solver's policy (breaker state, totals).
func (s *Solver) Policy() *Policy { return s.p }

// Name implements solve.Solver.
func (s *Solver) Name() string { return "resilient(" + s.inner.Name() + ")" }

// backoff returns the wait before retry n (1-based), jittered.
func (o Options) backoff(n int, rng *rand.Rand) time.Duration {
	d := float64(o.BaseBackoff) * math.Pow(o.Multiplier, float64(n-1))
	if d > float64(o.MaxBackoff) {
		d = float64(o.MaxBackoff)
	}
	if o.Jitter > 0 {
		d *= 1 + o.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// retryable classifies failures worth resubmitting: the injectable
// transport faults, corrupted responses, recovered solver panics
// (a crashed worker is just another flaky attempt from the caller's
// point of view), and a hybrid client that has shut down underneath a
// batching layer — a draining cloud queue is an outage the fallback
// solver must absorb, not a caller error. Anything else (malformed
// input, nil model) would fail identically on retry and on the
// fallback, so it surfaces immediately.
func retryable(err error) bool {
	return faults.Retryable(err) || errors.Is(err, ErrInvalidResponse) ||
		errors.Is(err, solve.ErrPanic) || errors.Is(err, hybrid.ErrClientClosed)
}

// validate cross-checks a response against the model it claims to
// solve via the independent verifier (internal/verify): the sample must
// cover every variable and reproduce the reported objective and
// feasibility claim. This is what catches Corrupt faults, which do not
// error. The returned error matches both ErrInvalidResponse and
// verify.ErrRejected under errors.Is and names the broken check.
func validate(m *cqm.Model, res *solve.Result) error {
	rep := verify.Sample(m, res, verify.Options{})
	if rep.Ok() {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidResponse, rep.Err())
}

// Solve implements solve.Solver: it retries the inner solver per the
// policy and degrades to the fallback when the cloud path is
// unavailable. Cancelling ctx mid-retry skips the remaining attempts
// and serves the fallback (which honours the cancellation contract by
// returning its best effort immediately).
func (s *Solver) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	cfg := solve.NewConfig(opts...)
	opt := s.p.opt
	clk := cfg.Clock
	if opt.Clock != nil {
		clk = opt.Clock
	}
	start := clk.Now()

	jitterSeed := opt.Seed
	if cfg.HasSeed {
		jitterSeed = cfg.Seed
	}
	rng := rand.New(rand.NewSource(jitterSeed*1_000_003 + 17))

	var attempts, retries, skips, invalid, panics int
	var fellBack bool
	var lastErr error
	defer func() {
		s.p.mu.Lock()
		s.p.totals.Solves++
		s.p.totals.Attempts += attempts
		s.p.totals.Retries += retries
		s.p.totals.BreakerSkips += skips
		s.p.totals.InvalidResponses += invalid
		s.p.totals.Panics += panics
		if fellBack {
			s.p.totals.Fallbacks++
		}
		s.p.mu.Unlock()
	}()
	// recordBreaker mirrors an outcome into the shared breaker and, when a
	// registry is attached, publishes the resulting state as gauges and a
	// transition event — the raw material for breaker-behaviour plots.
	recordBreaker := func(success bool) {
		before := s.p.breaker.State()
		s.p.breaker.Record(success, clk.Now())
		after := s.p.breaker.State()
		if cfg.Obs != nil {
			cfg.Obs.Gauge("resilient.breaker_state").Set(float64(after))
			cfg.Obs.Gauge("resilient.breaker_trips").Set(float64(s.p.breaker.Trips()))
			if after != before {
				cfg.Obs.Counter("resilient.breaker_transitions").Inc()
				cfg.Obs.Emit("resilient.breaker", map[string]any{"from": before.String(), "to": after.String()})
			}
		}
	}
	finish := func(res *solve.Result) *solve.Result {
		res.Stats.Attempts = attempts
		res.Stats.Retries = retries
		res.Stats.BreakerSkips = skips
		res.Stats.Panics = panics
		if fellBack {
			res.Stats.Fallbacks = 1
		}
		res.Stats.Wall = clk.Since(start)
		cfg.Observe("resilient", res.Stats)
		return res
	}

	for n := 1; n <= opt.MaxAttempts; n++ {
		if ctx != nil && ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		if !s.p.breaker.Allow(clk.Now()) {
			skips++
			lastErr = ErrBreakerOpen
			break
		}
		attempts++
		res, err := s.inner.Solve(ctx, m, opts...)
		if err == nil {
			if verr := validate(m, res); verr != nil {
				err = verr
				invalid++
			}
		}
		if err == nil {
			recordBreaker(true)
			return finish(res), nil
		}
		recordBreaker(false)
		lastErr = err
		if errors.Is(err, solve.ErrPanic) {
			panics++
		}
		if !retryable(err) {
			// Malformed input fails the same way everywhere; no retry,
			// no fallback.
			return nil, err
		}
		if n < opt.MaxAttempts {
			wait := opt.backoff(n, rng)
			retries++
			cfg.Obs.Emit("resilient.retry", map[string]any{
				"attempt": n, "wait_ms": float64(wait) / float64(time.Millisecond), "error": err.Error(),
			})
			if opt.OnRetry != nil {
				opt.OnRetry(n, wait, err)
			}
			if serr := clk.Sleep(ctx, wait); serr != nil {
				lastErr = serr
				break
			}
		}
	}

	if opt.Fallback != nil {
		cfg.Obs.Emit("resilient.fallback", map[string]any{"solver": opt.Fallback.Name(), "error": lastErr.Error()})
		if opt.OnFallback != nil {
			opt.OnFallback(lastErr)
		}
		// The fallback is the last line of defence, so it gets the same
		// panic isolation the cloud path does.
		res, err := solve.Protected(opt.Fallback).Solve(ctx, m, opts...)
		if err != nil {
			return nil, fmt.Errorf("resilient: fallback %s after %w: %w", opt.Fallback.Name(), lastErr, err)
		}
		fellBack = true
		return finish(res), nil
	}
	if errors.Is(lastErr, ErrBreakerOpen) {
		return nil, fmt.Errorf("%w after %d skipped attempts", ErrBreakerOpen, skips)
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempts, lastErr)
}
