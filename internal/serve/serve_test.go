package serve

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/plancache"
	"repro/internal/solve"
)

// blockingBackend is a controllable solver: each Solve announces itself
// on started, then waits for release (or ctx). It returns an honest
// all-zero sample — the identity plan, always decodable and verifiable.
type blockingBackend struct {
	started chan struct{}
	release chan struct{}
}

func newBlocking() *blockingBackend {
	return &blockingBackend{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	x := make([]bool, m.NumVars())
	return &solve.Result{Sample: x, Objective: m.Objective(x), Feasible: m.Feasible(x, 1e-6)}, nil
}

// instantBackend solves immediately with the identity sample.
type instantBackend struct{ advance func() }

func (ib *instantBackend) Name() string { return "instant" }

func (ib *instantBackend) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if ib.advance != nil {
		ib.advance()
	}
	x := make([]bool, m.NumVars())
	return &solve.Result{Sample: x, Objective: m.Objective(x), Feasible: m.Feasible(x, 1e-6)}, nil
}

func fakeClock(t *testing.T) *solve.Fake {
	t.Helper()
	return solve.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func req(tenant string) *Request {
	// Uniform task counts (the formulations require it); the imbalance
	// lives in the per-process weights.
	return &Request{Tenant: tenant, Tasks: []int{4, 4, 4}, Weights: []float64{8, 2, 2}}
}

// TestBurstOverBucketRejected: a burst beyond the token bucket gets a
// typed ErrRateLimited (an ErrOverload), and refill on the fake clock
// re-admits.
func TestBurstOverBucketRejected(t *testing.T) {
	clk := fakeClock(t)
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: clk,
		Rate: 1, Burst: 2, QueueDepth: 16, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(req("t1")); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err = s.Submit(req("t1"))
	if !errors.Is(err, ErrRateLimited) || !errors.Is(err, ErrOverload) {
		t.Fatalf("burst overflow err = %v, want ErrRateLimited wrapping ErrOverload", err)
	}
	// Another tenant has its own bucket.
	if _, err := s.Submit(req("t2")); err != nil {
		t.Fatalf("fresh tenant rejected: %v", err)
	}
	// One second at Rate 1 refills one token.
	clk.Advance(time.Second)
	if _, err := s.Submit(req("t1")); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	if got := s.Obs().Counter("serve.rejected_rate").Value(); got != 1 {
		t.Fatalf("rejected_rate counter = %d, want 1", got)
	}
}

// TestQueueFullRejected: admission beyond QueueDepth is a typed
// ErrQueueFull, not a blocking send.
func TestQueueFullRejected(t *testing.T) {
	bk := newBlocking()
	s, err := New(Options{
		Backend: bk, Clock: fakeClock(t), NoRateLimit: true,
		QueueDepth: 1, Workers: 1, DefaultBudget: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck
	defer close(bk.release)             // LIFO: release before the drain waits

	if _, err := s.Submit(req("t")); err != nil {
		t.Fatal(err)
	}
	<-bk.started // first job is out of the queue and in flight
	if _, err := s.Submit(req("t")); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	_, err = s.Submit(req("t"))
	if !errors.Is(err, ErrQueueFull) || !errors.Is(err, ErrOverload) {
		t.Fatalf("queue overflow err = %v, want ErrQueueFull wrapping ErrOverload", err)
	}
}

// TestDeadlineExpiryMidQueue: a job whose budget elapses while still
// queued fails with a typed context.DeadlineExceeded without ever
// reaching the solver.
func TestDeadlineExpiryMidQueue(t *testing.T) {
	clk := fakeClock(t)
	bk := newBlocking()
	s, err := New(Options{
		Backend: bk, Clock: clk, NoRateLimit: true,
		QueueDepth: 4, Workers: 1, DefaultBudget: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Submit(req("t")); err != nil {
		t.Fatal(err)
	}
	<-bk.started // worker busy on job 1
	r2 := req("t")
	r2.BudgetMs = 100
	j2, err := s.Submit(r2)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(200 * time.Millisecond) // j2's deadline passes in the queue
	close(bk.release)                   // job 1 completes; worker reaches j2

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.Wait(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusFailed {
		t.Fatalf("expired job status = %s, want failed", got.Status)
	}
	s.mu.Lock()
	jerr := s.jobs[j2.ID].err
	s.mu.Unlock()
	if !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("expired job err = %v, want context.DeadlineExceeded", jerr)
	}
	if s.Obs().Counter("serve.expired").Value() == 0 {
		t.Fatal("serve.expired counter not incremented")
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantBudgetExhausted: cumulative solver wall time on the fake
// clock exhausts the tenant budget and later submissions are rejected
// with the typed error.
func TestTenantBudgetExhausted(t *testing.T) {
	clk := fakeClock(t)
	ib := &instantBackend{advance: func() { clk.Advance(time.Second) }}
	s, err := New(Options{
		Backend: ib, Clock: clk, NoRateLimit: true,
		QueueDepth: 4, Workers: 1, TenantBudget: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck

	j, err := s.Submit(req("heavy"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(req("heavy"))
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, ErrOverload) {
		t.Fatalf("over-budget err = %v, want ErrBudgetExhausted wrapping ErrOverload", err)
	}
	// Other tenants are unaffected.
	if _, err := s.Submit(req("light")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestDrainRejectsQueuedGracefully: drain finishes the in-flight solve,
// rejects the queued job with ErrDraining, and refuses new work.
func TestDrainRejectsQueuedGracefully(t *testing.T) {
	bk := newBlocking()
	s, err := New(Options{
		Backend: bk, Clock: fakeClock(t), NoRateLimit: true,
		QueueDepth: 4, Workers: 1, DefaultBudget: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	j1, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	<-bk.started
	j2, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Admission closes immediately, before in-flight work lands: wait
	// on the drain barrier's own signal rather than polling real time.
	<-s.DrainStarted()
	if !s.Draining() {
		t.Fatal("DrainStarted fired before Draining() turned true")
	}
	if _, err := s.Submit(req("t")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain err = %v, want ErrDraining", err)
	}
	close(bk.release) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	g1, _ := s.Job(j1.ID)
	if g1.Status != StatusDone {
		t.Fatalf("in-flight job status = %s, want done (err %q)", g1.Status, g1.Error)
	}
	g2, _ := s.Job(j2.ID)
	if g2.Status != StatusRejected {
		t.Fatalf("queued job status = %s, want rejected", g2.Status)
	}
	s.mu.Lock()
	jerr := s.jobs[j2.ID].err
	s.mu.Unlock()
	if !errors.Is(jerr, ErrDraining) {
		t.Fatalf("queued job err = %v, want ErrDraining", jerr)
	}
	if s.Obs().Gauge("serve.draining").Value() != 1 {
		t.Fatal("serve.draining gauge not set")
	}
}

// TestDrainDeadlineCancelsInflight: a drain whose context expires
// cancels the in-flight solve instead of hanging forever.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	bk := newBlocking() // release is never closed: solve waits on ctx
	s, err := New(Options{
		Backend: bk, Clock: fakeClock(t), NoRateLimit: true,
		QueueDepth: 4, Workers: 1, DefaultBudget: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req("t")); err != nil {
		t.Fatal(err)
	}
	<-bk.started
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestSolveProducesVerifiedPlan: the happy path end to end — a solved
// job carries a plan and the paper's metrics.
func TestSolveProducesVerifiedPlan(t *testing.T) {
	s, err := New(Options{Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck

	j, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", got.Status, got.Error)
	}
	if len(got.Plan) != 3 {
		t.Fatalf("plan has %d rows, want 3", len(got.Plan))
	}
	if got.Metrics == nil || got.Metrics.ImbalanceBefore <= 0 {
		t.Fatalf("metrics = %+v, want imbalance_before > 0", got.Metrics)
	}
	if s.Obs().Counter("serve.done").Value() != 1 {
		t.Fatal("serve.done counter not incremented")
	}
}

// TestJobRetentionEvictsOldest: finished jobs beyond MaxJobs are
// evicted oldest-first; live jobs are never evicted.
func TestJobRetentionEvictsOldest(t *testing.T) {
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		MaxJobs: 2, QueueDepth: 8, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(req("t"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job lookup err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Job(ids[3]); err != nil {
		t.Fatalf("newest job lookup: %v", err)
	}
}

// TestUnknownJob: lookups and waits for unknown ids are typed.
func TestUnknownJob(t *testing.T) {
	s, err := New(Options{Backend: &instantBackend{}, Clock: fakeClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck
	if _, err := s.Job("j99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestRequestValidation covers the admission-side request checks.
func TestRequestValidation(t *testing.T) {
	lim := Limits{MaxProcs: 4}
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"valid", Request{Tasks: []int{3, 3}}, true},
		{"one proc", Request{Tasks: []int{3}}, false},
		{"negative tasks", Request{Tasks: []int{3, -1}}, false},
		{"non-uniform tasks", Request{Tasks: []int{3, 1}}, false},
		{"too many procs", Request{Tasks: []int{1, 1, 1, 1, 1}}, false},
		{"weights mismatch", Request{Tasks: []int{3, 3}, Weights: []float64{1}}, false},
		{"negative weight", Request{Tasks: []int{3, 3}, Weights: []float64{1, -2}}, false},
		{"bad form", Request{Tasks: []int{3, 3}, Form: "qubo"}, false},
		{"qcqm2", Request{Tasks: []int{3, 3}, Form: "QCQM2"}, true},
		{"negative k", Request{Tasks: []int{3, 3}, K: -1}, false},
		{"negative budget", Request{Tasks: []int{3, 3}, BudgetMs: -5}, false},
	}
	for _, tc := range cases {
		err := tc.req.Validate(lim)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	r := Request{Tasks: []int{3, 3}}
	if err := r.Validate(lim); err != nil {
		t.Fatal(err)
	}
	if r.Tenant != "default" {
		t.Fatalf("tenant default = %q", r.Tenant)
	}
}

// countingBackend counts Solve calls on top of instant identity solves.
type countingBackend struct {
	instantBackend
	calls atomic.Int64
}

func (cb *countingBackend) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	cb.calls.Add(1)
	return cb.instantBackend.Solve(ctx, m, opts...)
}

// TestCacheHitShortCircuitsBackend: with a plan cache wired in, the
// second submission of an identical instance is served from the cache —
// no backend call, CacheHit marked, serve.cache_hits counted — and the
// served plan equals the first solve's verified plan.
func TestCacheHitShortCircuitsBackend(t *testing.T) {
	cb := &countingBackend{}
	s, err := New(Options{
		Backend: cb, Clock: fakeClock(t),
		Cache:      plancache.New(plancache.Config{}),
		QueueDepth: 8, Workers: 1, NoRateLimit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck

	j1, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s.Wait(context.Background(), j1.ID)
	if err != nil || g1.Status != StatusDone {
		t.Fatalf("first solve: %v status %v", err, g1.Status)
	}
	if g1.Metrics.CacheHit {
		t.Fatal("first solve claims a cache hit")
	}

	j2, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Wait(context.Background(), j2.ID)
	if err != nil || g2.Status != StatusDone {
		t.Fatalf("second solve: %v status %v", err, g2.Status)
	}
	if !g2.Metrics.CacheHit || !g2.Metrics.SampleFeasible {
		t.Fatalf("second identical solve: cache_hit %v sample_feasible %v, want both",
			g2.Metrics.CacheHit, g2.Metrics.SampleFeasible)
	}
	if got := cb.calls.Load(); got != 1 {
		t.Fatalf("backend solved %d times, want 1", got)
	}
	if !reflect.DeepEqual(g2.Plan, g1.Plan) {
		t.Fatalf("cached plan differs from solved plan:\n%v\n%v", g2.Plan, g1.Plan)
	}
	if v := s.Obs().Counter("serve.cache_hits").Value(); v != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", v)
	}
	// A different instance must still reach the backend.
	r := req("t")
	r.Weights = []float64{9, 1, 2}
	j3, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	if g3, err := s.Wait(context.Background(), j3.ID); err != nil || g3.Metrics.CacheHit {
		t.Fatalf("distinct instance: err %v, cache_hit %v", err, g3 != nil && g3.Metrics.CacheHit)
	}
	if got := cb.calls.Load(); got != 2 {
		t.Fatalf("backend solved %d times after distinct instance, want 2", got)
	}
}
