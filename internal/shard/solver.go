package shard

import (
	"context"
	"fmt"

	"repro/internal/cqm"
	"repro/internal/qlrb"
	"repro/internal/solve"
	"repro/internal/verify"
)

// Solver adapts the hierarchical sharded solve to the solve.Solver
// interface over a prebuilt monolithic encoding, so internal/route can
// serve "solve it sharded" and "solve it whole" as two backends of the
// same model and accept only a verified answer.
//
// The adapter solves the encoding's instance hierarchically (never
// touching the monolithic model's variables) and re-encodes the merged
// plan into the model's sample space with EncodePlan; verify.Attest
// then stamps the honest objective and feasibility. An encoding the
// merged plan cannot express (e.g. coordination inflow into a pinned
// process) makes the adapter fail with an error rather than return a
// dishonest sample.
type Solver struct {
	enc *qlrb.Encoded
	opt Options
}

// NewSolver binds a sharded solver to a monolithic encoding. The
// formulation and migration cap are taken from the encoding so the
// hierarchical solve answers exactly the problem the model poses;
// everything else (Size, Workers, Hybrid, ...) comes from opt.
func NewSolver(enc *qlrb.Encoded, opt Options) *Solver {
	opt.Build.Form = enc.Form()
	opt.Build.K = enc.K()
	return &Solver{enc: enc, opt: opt}
}

// Name returns "shard".
func (s *Solver) Name() string { return "shard" }

// Solve runs the hierarchical solve for the bound encoding's instance
// and returns the merged plan re-encoded as a sample of the monolithic
// model. Budget, seed, clock and observability flow through from the
// solve options, so a router's per-solve budget reaches the shards
// unchanged.
func (s *Solver) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m != s.enc.Model {
		return nil, fmt.Errorf("shard: solver is bound to a different model")
	}
	cfg := solve.NewConfig(opts...)
	opt := s.opt
	if cfg.Budget > 0 {
		opt.Budget = cfg.Budget
	}
	if !cfg.Deadline.IsZero() {
		if d := cfg.Deadline.Sub(cfg.Clock.Now()); opt.Budget == 0 || d < opt.Budget {
			opt.Budget = d
		}
	}
	if cfg.HasSeed {
		opt.Hybrid.Seed = cfg.Seed
	}
	if opt.Obs == nil {
		opt.Obs = cfg.Obs
	}
	opt.Clock = cfg.Clock

	plan, st, err := Solve(ctx, s.enc.Instance(), opt)
	if err != nil {
		return nil, err
	}
	sample, err := s.enc.EncodePlan(plan)
	if err != nil {
		return nil, fmt.Errorf("shard: merged plan not encodable: %w", err)
	}
	res := &solve.Result{Sample: sample}
	verify.Attest(m, res, verify.Options{Tol: s.opt.Verify.Tol})
	res.Stats.Wall = st.Wall
	res.Stats.Reads = st.SubSolves
	cfg.Observe("shard", res.Stats)
	return res, nil
}
