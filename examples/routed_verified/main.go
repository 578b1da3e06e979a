// Trust-but-verify solving: a failure-aware router over three simulated
// cloud backends, each of which corrupts replies or crashes outright at
// a 30% combined rate, feeding a BSP rebalancing loop that refuses to
// apply any plan the independent verifier has not re-checked from
// scratch.
//
// Three defensive layers cooperate here:
//
//  1. Panic isolation (solve.Protected, applied by the router): a
//     backend that crashes mid-solve becomes an errors.Is-able ErrPanic
//     with the offending backend's name and stack — the router fails
//     over instead of the process going down.
//  2. Routing (internal/route): each round's solve goes to the primary
//     backend; a reply that FAILS INDEPENDENT VERIFICATION — wrong
//     objective, false feasibility claim — is rejected like an error,
//     and the router fails over to the next backend.
//  3. The driver's verify gate (internal/dlb + internal/verify): even
//     the accepted plan is re-verified against the instance and the
//     migration budget before it touches the runtime. No unverified
//     plan ever reaches dlb's simulated machine.
//
// Everything is seeded: rerunning prints the identical fault schedule
// and round log.
//
// Run with:
//
//	go run ./examples/routed_verified
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/chameleon"
	"repro/internal/dlb"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/qlrb"
	"repro/internal/route"
	"repro/internal/solve"
)

// renamed gives a backend its own name: the router keys its endpoints
// by name, and every hybrid engine is called "hybrid".
type renamed struct {
	solve.Solver
	name string
}

func (r renamed) Name() string { return r.name }

func main() {
	const (
		seed       = 12
		iterations = 8
		budget     = 6
		chaosRate  = 0.3
	)

	// Every backend gets its own seeded chaos injector: 15% corrupted
	// replies + 15% in-solver crashes. The primary's schedule is what
	// the BSP loop sees first each round, so print it.
	fcfg := faults.Chaos(seed, chaosRate)
	fmt.Print("primary backend fault schedule: ")
	for i, k := range fcfg.Schedule(iterations) {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(k)
	}
	fmt.Println()

	primary := faults.NewInjector(fcfg)
	backups := []*faults.Injector{
		faults.NewInjector(faults.Chaos(seed+88, chaosRate)),
		faults.NewInjector(faults.Chaos(seed+188, chaosRate)),
	}
	engine := func(inj *faults.Injector, s int64) hybrid.Options {
		return hybrid.Options{
			Reads: 6, Sweeps: 400, Seed: s,
			Presolve: true, Penalty: 5, PenaltyGrowth: 4,
			Faults: inj,
		}
	}

	reg := obs.NewRegistry()
	// qlrb builds a fresh engine (and hence a fresh router) per round;
	// keep every round's router so the tallies can be summed at the end.
	var routers []*route.Router
	method := &qlrb.Quantum{
		Label: "Q_CQM1_routed",
		Opts: qlrb.SolveOptions{
			Build:  qlrb.BuildOptions{Form: qlrb.QCQM1, K: budget},
			Hybrid: engine(primary, seed),
			Obs:    reg,
			// The router sends each round to the configured engine first
			// and fails over to two backups with independent fault
			// schedules; only a verified reply is accepted.
			Wrap: func(inner solve.Solver) solve.Solver {
				r, err := route.New(route.Options{},
					inner,
					renamed{hybrid.New(engine(backups[0], seed+1)), "backup-1"},
					renamed{hybrid.New(engine(backups[1], seed+2)), "backup-2"},
				)
				if err != nil {
					log.Fatal(err)
				}
				routers = append(routers, r)
				return r
			},
		},
	}

	base, err := lrp.NewInstance([]int{12, 12, 12, 12}, []float64{1, 1, 1, 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d BSP iterations, 3 routed backends, %d%% chaos per backend:\n",
		iterations, int(chaosRate*100))
	res, err := dlb.Run(context.Background(),
		dlb.DriftingWorkload{Base: base, Drift: 1}, method,
		dlb.Config{
			Runtime:         chameleon.Config{Workers: 2, LatencyMs: 0.2, PerTaskMs: 0.1},
			Iterations:      iterations,
			MigrationBudget: budget,
			Obs:             reg,
		})
	if err != nil {
		log.Fatal(err)
	}
	for it, ir := range res.Iterations {
		note := ""
		if ir.Degraded {
			note = "  [degraded: all backends failed this round]"
		}
		fmt.Printf("  iter %d: R_imb %.4f, migrated %2d/%d, makespan %.2f ms (baseline %.2f)%s\n",
			it, ir.Imbalance, ir.Migrated, budget, ir.MakespanMs, ir.BaselineMakespanMs, note)
	}

	fmt.Printf("\nall %d rounds completed; speedup %.3f, %d tasks migrated\n",
		len(res.Iterations), res.Speedup, res.TotalMigrated)
	pc := primary.Counts()
	fmt.Printf("primary faults: %d corrupt, %d panic over %d draws\n",
		pc[faults.Corrupt], pc[faults.Panic], primary.Attempts())
	var total []route.Tally
	for _, r := range routers {
		for i, tl := range r.Tallies() {
			if i == len(total) {
				total = append(total, route.Tally{Backend: tl.Backend})
			}
			total[i].Picks += tl.Picks
			total[i].OK += tl.OK
			total[i].Rejects += tl.Rejects
			total[i].Panics += tl.Panics
			total[i].Errors += tl.Errors
		}
	}
	for _, tl := range total {
		fmt.Printf("  backend %-8s: picks %d, ok %d, rejects %d, panics %d, errors %d\n",
			tl.Backend, tl.Picks, tl.OK, tl.Rejects, tl.Panics, tl.Errors)
	}
	fmt.Printf("verifier: %d primary replies rejected by the router, %d plans rejected at the dlb gate\n",
		reg.Counter("route.backend.hybrid.reject").Value(),
		reg.Counter("dlb.rejected_plans").Value())
	fmt.Println("\na backend may lie about its objective or crash mid-solve; the router")
	fmt.Println("absorbs both, and the independent verifier re-proves every plan —")
	fmt.Println("one-hot assignment, migration budget, recomputed objective — before")
	fmt.Println("the BSP loop applies it. no unverified plan ever reaches dlb.")
}
