// Package verify is the independent trust-but-verify layer between
// solvers and consumers. Nothing downstream of a solver — resilient
// retries, routed failover, qlrb decoding, the dlb driver — takes a
// solver's word for anything: every response and every decoded plan is
// re-checked from scratch against the model or instance it claims to
// solve before it is allowed to influence a running system.
//
// The verifier is deliberately independent of the solver stack: it
// reuses none of the incremental evaluators (internal/cqm.Evaluator)
// or repair helpers the solvers themselves rely on, so a bug or a
// corrupted reply in that machinery cannot vouch for itself. (It does
// share the low-level internal/bits bitset: Sample packs the byte-per-
// variable sample into uint64 words once, then every constraint scan
// reads the packed form — the whole assignment stays in a few cache
// lines across the model's full constraint sweep.) It is also
// allocation-light — a clean verification allocates one Report plus a
// pooled packed-sample scratch that is reused across calls — so it is
// cheap enough to run on every solve of a BSP rebalancing loop.
//
// Two inputs are covered:
//
//   - Sample re-checks a solve.Result against its cqm.Model: sample
//     shape, the reported objective against a from-scratch
//     recomputation (within tolerance), and the reported feasibility
//     claim against every constraint, with per-constraint violation
//     reports naming the broken constraints.
//   - Plan re-checks a decoded lrp.Plan against its instance: shape,
//     non-negative entries, one-hot assignment per task (every task of
//     every source process lands on exactly one destination — the
//     column-conservation constraints of the CQM formulations), the
//     ≤ k migration budget against the origin assignment, and an
//     optional load cap.
//
// A failed check is a Violation; Report.Err wraps ErrRejected so call
// sites classify rejections with errors.Is and log which constraint
// broke.
package verify

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/bits"
	"repro/internal/cqm"
	"repro/internal/lrp"
	"repro/internal/solve"
)

// packedSample is the pooled scratch Sample/Attest pack assignments
// into; pooling keeps repeated verifications allocation-free.
type packedSample struct{ s bits.Set }

var packPool = sync.Pool{New: func() any { return new(packedSample) }}

// getPacked packs x into a pooled bitset. Callers return it with
// packPool.Put when done.
func getPacked(x []bool) *packedSample {
	p := packPool.Get().(*packedSample)
	if need := bits.WordsFor(len(x)); cap(p.s) < need {
		p.s = make(bits.Set, need)
	} else {
		p.s = p.s[:need]
	}
	p.s.PackBools(x)
	return p
}

// packedValue evaluates a sparse linear expression against the packed
// assignment — the verifier's own walker, independent of the solver
// evaluators.
func packedValue(e *cqm.LinExpr, s bits.Set) float64 {
	v := e.Offset
	for _, t := range e.Terms {
		if s.Get(int(t.Var)) {
			v += t.Coef
		}
	}
	return v
}

// packedViolation recomputes one constraint's violation gap from the
// packed assignment: 0 when satisfied, otherwise the absolute gap.
func packedViolation(c *cqm.Constraint, s bits.Set) float64 {
	v := packedValue(&c.Expr, s)
	switch c.Sense {
	case cqm.Eq:
		return math.Abs(v - c.RHS)
	case cqm.Le:
		if v > c.RHS {
			return v - c.RHS
		}
	case cqm.Ge:
		if v < c.RHS {
			return c.RHS - v
		}
	}
	return 0
}

// packedObjective recomputes the model objective from the packed
// assignment via the model's exposed structure.
func packedObjective(m *cqm.Model, s bits.Set) float64 {
	linear, quad, squares, offset := m.ObjectiveParts()
	e := offset
	for _, t := range linear {
		if s.Get(int(t.Var)) {
			e += t.Coef
		}
	}
	for _, q := range quad {
		if s.Get(int(q.A)) && s.Get(int(q.B)) {
			e += q.Coef
		}
	}
	for i := range squares {
		v := packedValue(&squares[i], s)
		e += v * v
	}
	return e
}

// ErrRejected marks a response or plan that failed independent
// verification. Every non-nil Report.Err wraps it.
var ErrRejected = errors.New("verify: rejected")

// DefaultTol is the default feasibility/objective tolerance. All LRP
// data is integral (scaled by L_avg), so a loose absolute tolerance is
// safe; it matches the solvers' own feasTol.
const DefaultTol = 1e-6

// Options tunes a verification.
type Options struct {
	// Tol is the feasibility and relative-objective tolerance
	// (DefaultTol when zero or negative).
	Tol float64
	// MaxLoad, when > 0, additionally checks that no process's
	// post-rebalancing load exceeds it (Plan only) — the CQM's loadcap
	// constraint group. Zero disables the check: decoded plans are
	// repaired for conservation and budget, not for the load cap.
	MaxLoad float64
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return DefaultTol
}

// Violation is one failed check.
type Violation struct {
	// Check names what broke: a constraint name from the model (e.g.
	// "conserve[2]", "migcap"), or one of the verifier's own checks
	// ("shape", "objective", "feasibility", "negative[i,j]").
	Check string
	// Gap quantifies how far off the check was (0 when not meaningful).
	Gap float64
	// Detail is the human-readable explanation.
	Detail string
}

// String renders the violation for logs and errors.
func (v Violation) String() string {
	if v.Gap > 0 {
		return fmt.Sprintf("%s: %s (gap %g)", v.Check, v.Detail, v.Gap)
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// Report is the outcome of one verification.
type Report struct {
	// Violations lists every failed check; empty means verified.
	Violations []Violation
	// Objective is the independently recomputed objective: the model
	// objective of the sample (Sample), or the sum of squared load
	// deviations of the plan (Plan).
	Objective float64
	// Feasible is the independently recomputed feasibility — whether
	// the sample/plan satisfies every constraint, regardless of what
	// the solver claimed.
	Feasible bool
	// Checks counts the checks performed (diagnostics; a shape failure
	// short-circuits the rest).
	Checks int
}

// Ok reports whether the verification passed.
func (r *Report) Ok() bool { return r != nil && len(r.Violations) == 0 }

// Err returns nil for a passing report, otherwise an error wrapping
// ErrRejected that names the first broken check.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	if r == nil {
		return fmt.Errorf("%w: nil report", ErrRejected)
	}
	v := r.Violations[0]
	if len(r.Violations) == 1 {
		return fmt.Errorf("%w: %s", ErrRejected, v)
	}
	return fmt.Errorf("%w: %s (and %d more)", ErrRejected, v, len(r.Violations)-1)
}

func (r *Report) fail(check, detail string, gap float64) {
	r.Violations = append(r.Violations, Violation{Check: check, Gap: gap, Detail: detail})
}

// Sample independently re-checks a solver response against the model it
// claims to solve: the sample must cover every variable, reproduce the
// reported objective within tolerance, and back the reported
// feasibility claim against every constraint. A response that honestly
// reports itself infeasible passes (the claims are consistent); a
// response claiming feasibility while violating constraints is rejected
// with one violation per broken constraint, named after it.
func Sample(m *cqm.Model, res *solve.Result, opt Options) *Report {
	tol := opt.tol()
	rep := &Report{}
	if m == nil {
		rep.fail("model", "nil model", 0)
		return rep
	}
	if res == nil {
		rep.fail("response", "nil result", 0)
		return rep
	}
	rep.Checks++
	if len(res.Sample) != m.NumVars() {
		rep.fail("shape", fmt.Sprintf("sample has %d of %d variables", len(res.Sample), m.NumVars()), math.Abs(float64(len(res.Sample)-m.NumVars())))
		return rep
	}

	packed := getPacked(res.Sample)
	defer packPool.Put(packed)
	obj := packedObjective(m, packed.s)
	rep.Objective = obj
	rep.Checks++
	if gap := math.Abs(obj - res.Objective); gap > tol*(1+math.Abs(obj)) {
		rep.fail("objective", fmt.Sprintf("reported %g, sample evaluates to %g", res.Objective, obj), gap)
	}

	feasible := true
	cs := m.Constraints()
	for i := range cs {
		rep.Checks++
		gap := packedViolation(&cs[i], packed.s)
		if gap > tol {
			feasible = false
			if res.Feasible {
				// The response vouched for feasibility: name every
				// constraint the sample actually breaks.
				rep.fail(cs[i].Name, fmt.Sprintf("%s %v %g violated", cs[i].Name, cs[i].Sense, cs[i].RHS), gap)
			}
		}
	}
	rep.Feasible = feasible
	rep.Checks++
	if !res.Feasible && feasible {
		// The inverse lie: a feasible sample reported infeasible. The
		// metadata no longer matches the payload, so the reply is just
		// as untrustworthy as the claim-feasible case.
		rep.fail("feasibility", "reported infeasible, sample satisfies every constraint", 0)
	}
	return rep
}

// Attest recomputes a result's objective and feasibility directly from
// its sample and overwrites the reported values — how an honest engine
// guarantees its reply is internally consistent before it crosses a
// trust boundary. It reports whether anything had to change (an
// engine-internal accounting bug worth counting). A result whose sample
// does not match the model is left untouched.
func Attest(m *cqm.Model, res *solve.Result, opt Options) bool {
	if m == nil || res == nil || len(res.Sample) != m.NumVars() {
		return false
	}
	tol := opt.tol()
	packed := getPacked(res.Sample)
	defer packPool.Put(packed)
	obj := packedObjective(m, packed.s)
	feas := true
	cs := m.Constraints()
	for i := range cs {
		if packedViolation(&cs[i], packed.s) > tol {
			feas = false
			break
		}
	}
	changed := feas != res.Feasible || math.Abs(obj-res.Objective) > tol*(1+math.Abs(obj))
	res.Objective, res.Feasible = obj, feas
	return changed
}

// loadScratch pools the per-process load vector Plan recomputes, so
// repeated plan verifications (every cache hit, every dlb round) stay
// allocation-free apart from the Report itself.
type loadScratch struct{ loads []float64 }

var loadPool = sync.Pool{New: func() any { return new(loadScratch) }}

// Plan independently re-checks a decoded migration plan against its
// instance and migration budget, recomputing everything from the raw
// matrix:
//
//   - shape: a square M×M matrix for an M-process instance,
//   - non-negative entries,
//   - one-hot assignment per task: every task of source process j lands
//     on exactly one destination, i.e. column j sums to Tasks[j]
//     (violations are named "conserve[j]" like the CQM constraints),
//   - the migration budget: at most k tasks moved off the origin
//     assignment (k < 0 disables; violations are named "migcap"),
//   - optionally, the load cap (Options.MaxLoad; "loadcap[i]").
//
// Report.Objective is the recomputed sum of squared load deviations
// from the average — the paper's objective in unnormalized units.
func Plan(in *lrp.Instance, p *lrp.Plan, k int, opt Options) *Report {
	rep := &Report{}
	PlanInto(rep, in, p, k, opt)
	return rep
}

// PlanInto is Plan writing into a caller-owned Report: rep is reset
// (its Violations capacity is kept) and filled with exactly the checks
// Plan performs — it IS Plan's engine, so a PlanInto pass is a
// verify.Plan pass. A clean verification through a recycled Report
// performs zero heap allocations, which is what lets the plan cache
// re-verify every hit without paying for it on the hot path.
func PlanInto(rep *Report, in *lrp.Instance, p *lrp.Plan, k int, opt Options) {
	tol := opt.tol()
	rep.Violations = rep.Violations[:0]
	rep.Objective, rep.Feasible, rep.Checks = 0, false, 0
	if in == nil {
		rep.fail("instance", "nil instance", 0)
		return
	}
	if p == nil {
		rep.fail("plan", "nil plan", 0)
		return
	}
	m := in.NumProcs()
	rep.Checks++
	if len(p.X) != m {
		rep.fail("shape", fmt.Sprintf("plan has %d rows, instance has %d processes", len(p.X), m), math.Abs(float64(len(p.X)-m)))
		return
	}
	for i := range p.X {
		rep.Checks++
		if len(p.X[i]) != m {
			rep.fail("shape", fmt.Sprintf("row %d has %d columns, want %d", i, len(p.X[i]), m), math.Abs(float64(len(p.X[i])-m)))
			return
		}
	}

	feasible := true
	migrated := 0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			rep.Checks++
			if c := p.X[i][j]; c < 0 {
				feasible = false
				rep.fail(fmt.Sprintf("negative[%d,%d]", i, j), fmt.Sprintf("entry X[%d][%d] = %d is negative", i, j, c), float64(-c))
			} else if i != j {
				migrated += c
			}
		}
	}
	// One-hot per task: column j accounts for each of process j's tasks
	// exactly once across all destinations.
	for j := 0; j < m; j++ {
		rep.Checks++
		sum := 0
		for i := 0; i < m; i++ {
			sum += p.X[i][j]
		}
		if sum != in.Tasks[j] {
			feasible = false
			rep.fail(fmt.Sprintf("conserve[%d]", j), fmt.Sprintf("column sums to %d, want %d tasks (tasks lost or invented)", sum, in.Tasks[j]), math.Abs(float64(sum-in.Tasks[j])))
		}
	}
	rep.Checks++
	if k >= 0 && migrated > k {
		feasible = false
		rep.fail("migcap", fmt.Sprintf("plan migrates %d tasks, budget is %d", migrated, k), float64(migrated-k))
	}

	// Recomputed loads feed the objective and the optional load cap.
	// The vector comes from a pool so a clean re-verification through a
	// recycled Report allocates nothing.
	var sumLoad, sumSq float64
	ls := loadPool.Get().(*loadScratch)
	defer loadPool.Put(ls)
	if cap(ls.loads) < m {
		ls.loads = make([]float64, m)
	}
	loads := ls.loads[:m]
	for i := 0; i < m; i++ {
		l := 0.0
		for j := 0; j < m; j++ {
			if c := p.X[i][j]; c > 0 {
				l += in.Weight[j] * float64(c)
			}
		}
		loads[i] = l
		sumLoad += l
	}
	avg := sumLoad / float64(m)
	for i, l := range loads {
		d := l - avg
		sumSq += d * d
		if opt.MaxLoad > 0 {
			rep.Checks++
			if l > opt.MaxLoad+tol {
				feasible = false
				rep.fail(fmt.Sprintf("loadcap[%d]", i), fmt.Sprintf("process %d carries load %g, cap is %g", i, l, opt.MaxLoad), l-opt.MaxLoad)
			}
		}
	}
	rep.Objective = sumSq
	rep.Feasible = feasible
}
