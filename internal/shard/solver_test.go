package shard

import (
	"context"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/qlrb"
	"repro/internal/route"
	"repro/internal/solve"
)

// TestSolverAdapter proves the solve.Solver adapter round-trips: the
// hierarchical solve's merged plan re-encodes into the monolithic
// model's sample space, decodes back to a feasible plan, and carries an
// honest (attested) feasibility flag.
func TestSolverAdapter(t *testing.T) {
	in := hotSpots(8, 6, 4)
	enc, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: 16})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := NewSolver(enc, Options{
		Size:   4,
		Hybrid: hybrid.Options{Reads: 1, Sweeps: 80},
	})
	res, err := s.Solve(context.Background(), enc.Model, solve.WithSeed(13))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Feasible {
		t.Fatalf("attested sample infeasible (objective %g)", res.Objective)
	}
	plan, _, err := enc.DecodeRepaired(res.Sample)
	if err != nil {
		t.Fatalf("DecodeRepaired: %v", err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatalf("decoded plan invalid: %v", err)
	}
	if res.Stats.Reads == 0 {
		t.Fatal("adapter did not report its sub-solve count")
	}
}

func TestSolverAdapterRejectsForeignModel(t *testing.T) {
	in := hotSpots(8, 6, 4)
	enc, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	other, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(enc, Options{Size: 4}).Solve(context.Background(), other.Model); err == nil {
		t.Fatal("adapter accepted a model it was not bound to")
	}
}

// TestSolverInRouter routes between the sharded adapter and the
// monolithic hybrid on the same model — the first-class-backend wiring
// the hierarchy promises. The adapter is registered first, so the
// router's equal starting weights send it the solve, and the routed
// result must be a verified-feasible sample of the monolithic model.
func TestSolverInRouter(t *testing.T) {
	in := hotSpots(8, 6, 4)
	enc, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: 16})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sharded := NewSolver(enc, Options{
		Size:   4,
		Hybrid: hybrid.Options{Reads: 1, Sweeps: 120, Seed: 22},
	})
	mono := hybrid.New(hybrid.Options{Reads: 1, Sweeps: 120, Seed: 21})
	r, err := route.New(route.Options{}, sharded, mono)
	if err != nil {
		t.Fatalf("route.New: %v", err)
	}
	res, err := r.Solve(context.Background(), enc.Model, solve.WithSeed(23))
	if err != nil {
		t.Fatalf("routed solve: %v", err)
	}
	if tl := r.Tallies()[0]; tl.Backend != "shard" || tl.OK != 1 {
		t.Fatalf("sharded adapter did not serve the solve: %+v", r.Tallies())
	}
	if !res.Feasible {
		t.Fatal("routed result infeasible")
	}
	plan, _, err := enc.DecodeRepaired(res.Sample)
	if err != nil {
		t.Fatalf("DecodeRepaired: %v", err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatalf("routed plan invalid: %v", err)
	}
}
