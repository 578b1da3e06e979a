package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/lrp"
	"repro/internal/serve"
	"repro/internal/verify"
)

// relTol is the relative tolerance between the daemon's reported plan
// metrics and the bench's own recomputation.
const relTol = 1e-9

// maxListed caps the violations kept verbatim; the count stays exact.
const maxListed = 20

// tally counts one phase's requests.
type tally struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Refused   int    `json:"refused"`
	Failed    int    `json:"failed"`
}

func (t tally) String() string {
	return fmt.Sprintf("%-9s sent %6d  succeeded %6d  refused %4d  failed %4d",
		t.Phase, t.Sent, t.Succeeded, t.Refused, t.Failed)
}

// checker is the correctness gate. No plan the daemon serves is taken
// on its word: each is re-verified against the instance the bench
// generated, and its reported quality is recomputed.
type checker struct {
	tallies    []tally
	violations int
	listed     []string
	verifyUs   []float64 // duration of each of the bench's verify.Plan calls
}

func (ck *checker) fail(format string, args ...any) {
	ck.violations++
	if len(ck.listed) < maxListed {
		ck.listed = append(ck.listed, fmt.Sprintf(format, args...))
	}
}

// phase classifies every outcome of one phase and records its tally.
// It reports, per outcome, whether a verified plan was served.
func (ck *checker) phase(name string, outs []outcome) []bool {
	t := tally{Phase: name, Sent: len(outs)}
	ok := make([]bool, len(outs))
	for i := range outs {
		o := &outs[i]
		switch {
		case o.err != nil:
			t.Failed++
			ck.fail("%s: %v", name, o.err)
		case o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable:
			t.Refused++
			ck.fail("%s: POST /solve refused with %d", name, o.code)
		case o.code != http.StatusAccepted:
			t.Failed++
			ck.fail("%s: POST /solve answered %d", name, o.code)
		case o.job.Status != serve.StatusDone:
			t.Failed++
			ck.fail("%s: job %s ended %s: %s", name, o.id, o.job.Status, o.job.Error)
		default:
			if err := ck.plan(o.req, o.job); err != nil {
				t.Failed++
				ck.fail("%s: job %s: %v", name, o.id, err)
				continue
			}
			t.Succeeded++
			ok[i] = true
		}
	}
	ck.tallies = append(ck.tallies, t)
	return ok
}

// plan re-verifies a served plan and recomputes its metrics.
func (ck *checker) plan(req genReq, j *serve.Job) error {
	if j.Metrics == nil {
		return fmt.Errorf("done without metrics")
	}
	if j.Procs != req.in.NumProcs() {
		return fmt.Errorf("procs %d, sent %d", j.Procs, req.in.NumProcs())
	}
	p := &lrp.Plan{X: j.Plan}
	t0 := time.Now()
	rep := verify.Plan(req.in, p, req.k, verify.Options{})
	ck.verifyUs = append(ck.verifyUs, float64(time.Since(t0))/float64(time.Microsecond))
	if !rep.Ok() {
		return rep.Err()
	}
	ev := lrp.Evaluate(req.in, p)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"imbalance_before", j.Metrics.ImbalanceBefore, req.in.Imbalance()},
		{"imbalance_after", j.Metrics.ImbalanceAfter, ev.Imbalance},
		{"speedup", j.Metrics.Speedup, ev.Speedup},
	} {
		if math.Abs(c.got-c.want) > relTol*math.Max(1, math.Abs(c.want)) {
			return fmt.Errorf("reported %s %v, plan gives %v", c.name, c.got, c.want)
		}
	}
	return nil
}

// retained checks, after a restart, every job id the warm-up saw
// finish: it must answer done with a plan that re-verifies, or 410 if
// retention evicted it. A job the restart re-enqueued is awaited.
func (ck *checker) retained(c *client, warm []outcome) {
	t := tally{Phase: "restart"}
	for i := range warm {
		o := &warm[i]
		if o.id == "" {
			continue
		}
		t.Sent++
		j, code, err := c.get(o.id)
		if err == nil && code == http.StatusOK && !terminal(j.Status) {
			j, _, err = c.await(o.id, pollFirst)
			code = http.StatusOK
		}
		switch {
		case err != nil:
			t.Failed++
			ck.fail("restart: job %s: %v", o.id, err)
		case code == http.StatusGone:
			t.Succeeded++
		case code != http.StatusOK:
			t.Failed++
			ck.fail("restart: job %s answered %d", o.id, code)
		case j.Status != serve.StatusDone:
			t.Failed++
			ck.fail("restart: job %s is %s after restart", o.id, j.Status)
		default:
			if err := ck.plan(o.req, j); err != nil {
				t.Failed++
				ck.fail("restart: job %s: %v", o.id, err)
				continue
			}
			t.Succeeded++
		}
	}
	ck.tallies = append(ck.tallies, t)
}

// attempted totals the tallies for the result line. Every refused or
// failed operation is also a violation, so violations is the failed
// count.
func (ck *checker) attempted() int {
	n := 0
	for _, t := range ck.tallies {
		n += t.Sent
	}
	return n
}
