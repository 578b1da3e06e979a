package dlb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/qlrb"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/verify"
)

// renamed gives a backend its own name: the router keys its endpoints
// by name, and every hybrid engine is called "hybrid".
type renamed struct {
	solve.Solver
	name string
}

func (r renamed) Name() string { return r.name }

// TestRoutedVerifiedRunUnderChaos is the end-to-end acceptance test of
// the trust-but-verify stack: every backend of a routed quantum
// rebalancer is wired to a seeded chaos injector that corrupts replies
// and crashes the solver at a combined 30% rate, and the driven run
// must still complete every BSP round with only verified-feasible plans
// applied. Each round builds a fresh router whose equal starting
// weights send the first attempt to the primary backend, and the
// backups serve only failovers, so the primary's fault sequence is
// fully deterministic and the test provably exercises both corruption
// and panics.
func TestRoutedVerifiedRunUnderChaos(t *testing.T) {
	const (
		iterations = 8
		budget     = 6
	)
	// Seed 12's 8-draw chaos schedule injects 2 corrupt and 2 panic
	// faults (rounds 1, 3, 4, 7); see faults.Config.Schedule.
	primaryInj := faults.NewInjector(faults.Chaos(12, 0.3))
	backupInj := [2]*faults.Injector{
		faults.NewInjector(faults.Chaos(100, 0.3)),
		faults.NewInjector(faults.Chaos(200, 0.3)),
	}
	backupOpts := func(inj *faults.Injector, seed int64) hybrid.Options {
		return hybrid.Options{Reads: 2, Sweeps: 40, Seed: seed, Faults: inj}
	}

	method := qlrb.NewQuantum("Q_routed", qlrb.QCQM1, budget,
		hybrid.Options{Reads: 2, Sweeps: 40, Seed: 7, Faults: primaryInj})
	method.Opts.Wrap = func(inner solve.Solver) solve.Solver {
		r, err := route.New(route.Options{},
			inner,
			renamed{hybrid.New(backupOpts(backupInj[0], 8)), "backup-1"},
			renamed{hybrid.New(backupOpts(backupInj[1], 9)), "backup-2"},
		)
		if err != nil {
			t.Fatalf("route.New: %v", err)
		}
		return r
	}

	reg := obs.NewRegistry()
	res, err := Run(context.Background(),
		StaticWorkload{In: testInstance()}, method,
		Config{Runtime: runtimeCfg(), Iterations: iterations, MigrationBudget: budget, Obs: reg})
	if err != nil {
		t.Fatalf("chaos run aborted: %v", err)
	}
	if len(res.Iterations) != iterations {
		t.Fatalf("completed %d/%d rounds", len(res.Iterations), iterations)
	}
	if got := reg.Counter("dlb.rounds").Value(); got != iterations {
		t.Fatalf("dlb.rounds = %d, want %d", got, iterations)
	}

	// Every applied plan passed verification, so no round may exceed the
	// migration budget (degraded rounds reapply an already-verified plan
	// or the identity, which never migrates more).
	for i, ir := range res.Iterations {
		if ir.Migrated > budget {
			t.Fatalf("round %d migrated %d tasks past budget %d", i, ir.Migrated, budget)
		}
		if ir.Degraded && ir.Err == nil {
			t.Fatalf("round %d degraded without recording the cause", i)
		}
	}

	// The primary backend serves exactly the first attempt of each round,
	// so its draws replay seed 12's schedule verbatim: the run
	// demonstrably survived injected corruption AND injected panics.
	if got := primaryInj.Attempts(); got != iterations {
		t.Fatalf("primary backend drew %d faults, want one per round (%d)", got, iterations)
	}
	counts := primaryInj.Counts()
	if counts[faults.Corrupt] != 2 || counts[faults.Panic] != 2 {
		t.Fatalf("primary fault mix = %v, want 2 corrupt + 2 panic", counts)
	}
}

// dishonest returns a hand-built plan violating the named invariant —
// the kind of reply a buggy or compromised solver could produce.
type dishonest struct{ mode string }

func (d dishonest) Name() string { return "dishonest-" + d.mode }

func (d dishonest) Rebalance(_ context.Context, in *lrp.Instance) (*lrp.Plan, error) {
	p := lrp.NewPlan(in)
	switch d.mode {
	case "overbudget":
		// Legal plan shape, but migrates every task off process 0.
		p.Move(0, 1, in.Tasks[0])
	case "conservation":
		p.X[0][0]++ // column 0 now sums to Tasks[0]+1
	case "negative":
		p.X[1][0]-- // off-diagonal entry below zero...
		p.X[0][0]++ // ...hidden behind an intact column sum
	}
	return p, nil
}

// TestRunRejectsUnverifiablePlans proves the driver's verify gate: a
// method handing back a constraint-violating plan degrades the round
// with an errors.Is-able ErrVerify naming the broken constraint, and
// the corrupt plan never reaches the runtime.
func TestRunRejectsUnverifiablePlans(t *testing.T) {
	cases := []struct {
		mode   string
		budget int
	}{
		{"overbudget", 3},
		{"conservation", 0},
		{"negative", 0},
	}
	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := Run(context.Background(),
				StaticWorkload{In: testInstance()}, dishonest{mode: tc.mode},
				Config{Runtime: runtimeCfg(), Iterations: 2, MigrationBudget: tc.budget, Obs: reg})
			if err != nil {
				t.Fatalf("non-strict run aborted: %v", err)
			}
			if res.DegradedRounds != 2 {
				t.Fatalf("DegradedRounds = %d, want every round rejected", res.DegradedRounds)
			}
			if res.TotalMigrated != 0 {
				t.Fatalf("rejected plans still migrated %d tasks", res.TotalMigrated)
			}
			for i, ir := range res.Iterations {
				if !errors.Is(ir.Err, ErrVerify) || !errors.Is(ir.Err, verify.ErrRejected) {
					t.Fatalf("round %d: Err = %v, want ErrVerify/verify.ErrRejected", i, ir.Err)
				}
			}
			if got := reg.Counter("dlb.rejected_plans").Value(); got != 2 {
				t.Fatalf("dlb.rejected_plans = %d, want 2", got)
			}

			// Strict mode surfaces the same rejection as a hard failure.
			_, err = Run(context.Background(),
				StaticWorkload{In: testInstance()}, dishonest{mode: tc.mode},
				Config{Runtime: runtimeCfg(), Iterations: 1, MigrationBudget: tc.budget, Strict: true})
			if !errors.Is(err, ErrRebalance) || !errors.Is(err, ErrVerify) {
				t.Fatalf("strict err = %v, want ErrRebalance wrapping ErrVerify", err)
			}
		})
	}
}

// TestRunVerifyNamesBrokenConstraint pins the verifier's report to the
// constraint vocabulary: a conservation-breaking plan is rejected with
// the "conserve[j]" check named in the error text.
func TestRunVerifyNamesBrokenConstraint(t *testing.T) {
	res, err := Run(context.Background(),
		StaticWorkload{In: testInstance()}, dishonest{mode: "conservation"},
		Config{Runtime: runtimeCfg(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Iterations[0].Err; got == nil || !errors.Is(got, ErrVerify) {
		t.Fatalf("Err = %v, want ErrVerify", got)
	} else if want := "conserve[0]"; !strings.Contains(got.Error(), want) {
		t.Fatalf("rejection %q does not name %s", got.Error(), want)
	}
}
