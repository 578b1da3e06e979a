package qlrb

import (
	"context"
	"fmt"

	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/solve"
)

// SolveOptions configures an end-to-end quantum-hybrid rebalancing solve.
type SolveOptions struct {
	Build  BuildOptions
	Hybrid hybrid.Options
	// NoWarmStart disables seeding the sampler with the identity plan
	// (every task stays home), which is feasible for every K >= 0 and is
	// the natural warm start for a REbalancing problem.
	NoWarmStart bool
	// WarmPlans are additional warm starts, typically the plans of
	// classical algorithms — the paper runs the classical methods first
	// to guide the hybrid experiments, and cloud hybrid solvers likewise
	// seed their samplers classically. Plans exceeding the migration cap
	// are projected onto it before encoding; unencodable plans (e.g.
	// inflow into a pinned process) are skipped.
	WarmPlans []*lrp.Plan
	// Wrap, when non-nil, decorates the hybrid engine built for this
	// solve (after warm starts and pair moves are resolved into it) —
	// the attachment point for resilience middleware
	// (resilient.Policy.Wrap) or any other solve.Solver decorator.
	Wrap func(solve.Solver) solve.Solver
	// Obs, when non-nil, receives the full workflow trace: qlrb.build /
	// qlrb.solve / qlrb.decode spans plus every solver-internal counter
	// (passed down via solve.WithObs). Nil disables instrumentation.
	Obs *obs.Registry
}

// SolveStats reports everything the paper's tables need about one solve.
type SolveStats struct {
	// Qubits is the number of binary variables (logical qubits).
	Qubits int
	// Constraints is the total constraint count.
	Constraints int
	// EqConstraints and IneqConstraints split it by sense.
	EqConstraints, IneqConstraints int
	// SampleFeasible reports whether the raw best sample satisfied the
	// CQM (before any plan-level repair).
	SampleFeasible bool
	// Repaired reports whether plan-level projection was needed.
	Repaired bool
	// Objective is the CQM objective of the returned sample.
	Objective float64
	// Solver carries the engine's timing and work counters.
	Solver solve.Stats
}

// Pipeline returns the staged pipeline equivalent of the options: the
// monolithic Solve path expressed as the shared Pipeline stages.
func (opt SolveOptions) Pipeline() *Pipeline {
	return &Pipeline{
		Build:       opt.Build,
		Hybrid:      opt.Hybrid,
		NoWarmStart: opt.NoWarmStart,
		WarmPlans:   opt.WarmPlans,
		Wrap:        opt.Wrap,
		Obs:         opt.Obs,
	}
}

// Solve builds the CQM for in, runs the hybrid engine, and decodes the
// best sample into a guaranteed-feasible migration plan. Cancelling ctx
// stops the solve at the next sweep boundary; the best sample collected
// so far is still decoded (Stats.Solver.Interrupted reports the cut).
//
// Solve is a thin wrapper over the shared staged Pipeline — the same
// build → sample → decode → verify stages the routed and sharded paths
// run through.
func Solve(ctx context.Context, in *lrp.Instance, opt SolveOptions) (*lrp.Plan, SolveStats, error) {
	return opt.Pipeline().Run(ctx, in)
}

// Quantum is a reusable rebalancer with fixed options; it satisfies the
// balancer.Rebalancer interface so the experiment harness can treat
// quantum-hybrid and classical methods uniformly.
type Quantum struct {
	// Label is the method name used in tables (e.g. "Q_CQM1_k1").
	Label string
	// Opts configures building and solving.
	Opts SolveOptions
	// LastStats records the most recent solve's statistics.
	LastStats SolveStats
}

// NewQuantum builds a named quantum rebalancer for a formulation, a
// migration cap k, and hybrid solver options.
func NewQuantum(label string, form Formulation, k int, h hybrid.Options) *Quantum {
	return &Quantum{
		Label: label,
		Opts: SolveOptions{
			Build:  BuildOptions{Form: form, K: k},
			Hybrid: h,
		},
	}
}

// Name returns the method label.
func (q *Quantum) Name() string { return q.Label }

// Rebalance solves the instance and returns a feasible migration plan.
func (q *Quantum) Rebalance(ctx context.Context, in *lrp.Instance) (*lrp.Plan, error) {
	plan, stats, err := Solve(ctx, in, q.Opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.Label, err)
	}
	q.LastStats = stats
	return plan, nil
}
