package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/cqm"
)

// ErrPanic marks a solve that panicked and was recovered by the
// isolation layer. Match with errors.Is; the concrete *PanicError
// carries the backend name, the panic value and the goroutine stack.
var ErrPanic = errors.New("solve: solver panicked")

// PanicError is the recovered form of a solver panic.
type PanicError struct {
	// Backend is the Name() of the solver that panicked.
	Backend string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error. The stack is kept off the one-line message;
// callers that want it read the field.
func (e *PanicError) Error() string {
	return fmt.Sprintf("solve: solver %q panicked: %v", e.Backend, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanic) work.
func (e *PanicError) Unwrap() error { return ErrPanic }

// protected is the Solver wrapper produced by Protected.
type protected struct {
	inner Solver
}

// Protected wraps a solver so that a panic during Solve is recovered
// and converted into a *PanicError instead of unwinding into the caller
// — the isolation boundary that lets a crashing backend merely trigger
// a routed failover or burn a resilient retry rather than kill the
// process.
// Recovered panics are counted under "solver.<name>.panics" in the
// configured obs registry. Wrapping is idempotent, and a nil solver is
// returned unchanged.
func Protected(s Solver) Solver {
	if s == nil {
		return nil
	}
	if _, ok := s.(*protected); ok {
		return s
	}
	return &protected{inner: s}
}

// Name implements Solver, delegating to the wrapped backend.
func (p *protected) Name() string { return p.inner.Name() }

// Solve implements Solver. A recovered panic yields (nil, *PanicError);
// otherwise the inner result and error pass through untouched.
func (p *protected) Solve(ctx context.Context, m *cqm.Model, opts ...Option) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Backend: p.inner.Name(), Value: r, Stack: debug.Stack()}
			res, err = nil, pe
			cfg := NewConfig(opts...)
			if cfg.Obs != nil {
				cfg.Obs.Counter("solver." + p.inner.Name() + ".panics").Inc()
				cfg.Obs.Emit("solver.panic", map[string]any{
					"backend": p.inner.Name(),
					"value":   fmt.Sprint(r),
				})
			}
		}
	}()
	return p.inner.Solve(ctx, m, opts...)
}
