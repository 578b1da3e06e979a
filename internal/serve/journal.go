// Job-lifecycle durability: the server journals every lifecycle
// transition (accept → done/failed/rejected, plus retention evictions)
// as one self-contained binary record (record.go) through a
// caller-supplied Journal — in production a *wal.Log. Two records gate
// what a client sees: the accept is journaled before the 202, and the
// terminal record before the job turns terminal and its done channel
// closes. On startup the daemon replays the journal into
// Options.Recover and the server rebuilds itself:
//
//   - Terminal jobs inside the retention window are restored as
//     queryable history. A restored done-plan is re-verified with
//     verify.Plan before it is trusted; a plan that fails (disk
//     corruption the WAL's CRC could not see, or a config change that
//     invalidates it) demotes the job to unfinished and it re-runs —
//     corrupt state is re-solved, never served.
//   - Accepted-but-unfinished jobs (queued or running at the crash)
//     are re-enqueued with a fresh deadline, idempotently by job id,
//     and marked Recovered in their snapshots. Re-admission respects
//     tenant solve budgets, which are themselves replayed from the
//     wall time of completed work.
//   - Evicted ids are remembered (bounded), so a lookup of a job that
//     existed-but-aged-out keeps answering ErrEvicted (HTTP 410)
//     across restarts instead of decaying to a 404.
//
// Journal failures never fail the serving path: they are counted
// (serve.journal_errors) and the server keeps answering. Durability
// degrades; correctness does not.
package serve

import (
	"errors"
	"time"

	"repro/internal/lrp"
	"repro/internal/verify"
)

// maxEvictedTracked bounds the remembered-evictions set; beyond it the
// oldest evicted ids decay to plain ErrUnknownJob (404).
const maxEvictedTracked = 4096

// Journal receives one encoded record per lifecycle transition.
// *wal.Log satisfies it. Append must be safe for concurrent use and
// must not call back into the server.
type Journal interface {
	Append(rec []byte) error
}

// Compactor is the optional snapshot-compaction side of a Journal:
// when the configured Journal implements it, the server rewrites the
// journal as a snapshot of its retained state whenever CompactDue
// reports true after a terminal transition. *wal.Log satisfies it.
type Compactor interface {
	CompactDue() bool
	Compact(records [][]byte) error
}

// journal appends one record, counting (never surfacing) failures.
func (s *Server) journal(rec journalRecord) {
	if s.opt.Journal == nil {
		return
	}
	if err := s.opt.Journal.Append(appendRecord(nil, &rec)); err != nil {
		s.obs.Counter("serve.journal_errors").Inc()
	}
}

// terminalRecord is the record of job j ending in status st; ok is
// false for a status that is not terminal.
func terminalRecord(j *job, st Status, plan *lrp.Plan, m *Metrics, err error) (rec journalRecord, ok bool) {
	rec = journalRecord{ID: j.n, Metrics: m}
	switch st {
	case StatusDone:
		rec.Op = opDone
		if plan != nil {
			rec.Plan = plan.X
		}
	case StatusFailed:
		rec.Op = opFail
	case StatusRejected:
		rec.Op = opReject
	default:
		return rec, false
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec, true
}

// journalTerminal journals j's terminal record and runs a compaction
// if one is due. The caller holds s.termMu and has not yet made j
// terminal, so the snapshot takes j's outcome from term; every other
// job is either terminal with its record journaled or not yet finished.
// s.mu is held from the snapshot until the rewrite lands, so no accept
// or evict (both appended under s.mu) can fall between the two and be
// dropped. Lock order: termMu, s.mu, then the journal's own lock.
func (s *Server) journalTerminal(j *job, term journalRecord) {
	if s.opt.Journal == nil {
		return
	}
	s.journal(term)
	comp, ok := s.opt.Journal.(Compactor)
	if !ok || !comp.CompactDue() {
		return
	}
	s.mu.Lock()
	err := comp.Compact(s.snapshotJournalLocked(j, term))
	s.mu.Unlock()
	if err != nil {
		s.obs.Counter("serve.journal_errors").Inc()
		return
	}
	s.obs.Counter("serve.journal_compactions").Inc()
}

// snapshotJournalLocked re-encodes the retained state: the remembered
// evictions, then one accept per live job followed by its terminal
// record if it has one — pending's taken from pendingTerm. Replaying
// the snapshot reconstructs the same server state the long journal
// would have. Lock order: s.mu, then each job's mu — matching
// evictLocked.
func (s *Server) snapshotJournalLocked(pending *job, pendingTerm journalRecord) [][]byte {
	var records [][]byte
	add := func(rec journalRecord) {
		records = append(records, appendRecord(nil, &rec))
	}
	for _, id := range s.evictOrder {
		if n, ok := parseJobID(id); ok {
			add(journalRecord{Op: opEvict, ID: n})
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		add(journalRecord{
			Op: opAccept, ID: j.n, Req: j.req,
			BudgetMs: int64(j.budget / time.Millisecond),
		})
		if j == pending {
			add(pendingTerm)
			continue
		}
		j.mu.Lock()
		rec, ok := terminalRecord(j, j.status, j.plan, j.metrics, j.err)
		j.mu.Unlock()
		if ok { // queued/running: the accept alone re-enqueues it
			add(rec)
		}
	}
	return records
}

// rememberEvictedLocked adds id to the bounded evicted-ids memory.
func (s *Server) rememberEvictedLocked(id string) {
	if s.evicted == nil {
		s.evicted = make(map[string]struct{})
	}
	if _, ok := s.evicted[id]; ok {
		return
	}
	s.evicted[id] = struct{}{}
	s.evictOrder = append(s.evictOrder, id)
	for len(s.evictOrder) > maxEvictedTracked {
		delete(s.evicted, s.evictOrder[0])
		s.evictOrder = s.evictOrder[1:]
	}
}

// recover rebuilds server state from replayed journal records. Called
// from New before any worker starts, so it runs single-threaded; it
// returns the jobs to re-enqueue (in acceptance order) and leaves
// s.jobs / s.order / s.tenants / s.evicted / s.nextID reflecting the
// pre-crash server. The caller sizes the queue to fit the returned
// jobs before starting workers.
//
// A first pass reads only each record's op and id; only the accept and
// last terminal record of a job that was not evicted are decoded in
// full. Records that fail to decode are dropped and counted
// (serve.recovery_dropped).
func (s *Server) recover(records [][]byte) []*job {
	type slot struct{ accept, term []byte }
	slots := make(map[int64]*slot)
	evicted := make(map[int64]bool)
	var order, evictOrder []int64
	dropped := 0
	for _, raw := range records {
		op, n, ok := peekRecord(raw)
		if !ok {
			dropped++
			continue
		}
		s.nextID = max(s.nextID, n)
		if op == opEvict {
			if !evicted[n] {
				evicted[n] = true
				evictOrder = append(evictOrder, n)
			}
			continue
		}
		sl := slots[n]
		if sl == nil {
			sl = &slot{}
			slots[n] = sl
		}
		if op == opAccept {
			if sl.accept == nil {
				order = append(order, n)
			}
			sl.accept = raw
		} else {
			sl.term = raw // last terminal record wins
		}
	}

	now := s.clock.Now()
	var requeue []*job
	for _, n := range order {
		if evicted[n] {
			continue // fell out of retention pre-crash; remembered below
		}
		sl := slots[n]
		acc, err := decodeRecord(sl.accept, s.opt.Limits)
		if err != nil {
			dropped++
			continue
		}
		j, err := s.rebuildJob(n, &acc, now)
		if err != nil {
			dropped++
			continue
		}
		restored := false
		if sl.term != nil {
			if term, err := decodeRecord(sl.term, s.opt.Limits); err != nil {
				dropped++
			} else if restored = s.restoreTerminal(j, &term); !restored {
				// A done record whose plan no longer verifies: re-solve
				// rather than serve corrupt state.
				s.obs.Counter("serve.recovery_corrupt").Inc()
			}
		}
		if restored {
			s.obs.Counter("serve.recovery_restored").Inc()
		} else {
			requeue = append(requeue, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	for _, n := range evictOrder {
		s.rememberEvictedLocked(jobID(n))
	}

	// Re-admission respects the replayed tenant budgets: a tenant whose
	// completed work already exhausted its budget gets its unfinished
	// jobs failed, not silently re-run.
	admitted := requeue[:0]
	for _, j := range requeue {
		t := s.tenants[j.tenant]
		if s.opt.TenantBudget > 0 && t != nil && t.used >= s.opt.TenantBudget {
			s.finish(j, StatusFailed, nil, nil, ErrBudgetExhausted)
			continue
		}
		s.obs.Counter("serve.recovered").Inc()
		admitted = append(admitted, j)
	}
	if dropped > 0 {
		s.obs.Counter("serve.recovery_dropped").Add(int64(dropped))
	}
	return admitted
}

// rebuildJob reconstructs job n from its accept record. The request is
// re-validated against the *current* limits, so a journal from a laxer
// configuration cannot smuggle in an oversized instance.
func (s *Server) rebuildJob(n int64, acc *journalRecord, now time.Time) (*job, error) {
	req := acc.Req
	if err := req.Validate(s.opt.Limits); err != nil {
		return nil, err
	}
	in, budget, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}
	if acc.BudgetMs > 0 && acc.BudgetMs <= s.maxBudgetMs() {
		budget = time.Duration(acc.BudgetMs) * time.Millisecond
	}
	return &job{
		id: jobID(n), n: n, tenant: req.Tenant, req: req, in: in,
		submitted: now, deadline: now.Add(budget), budget: budget,
		done: make(chan struct{}), status: StatusQueued, recovered: true,
	}, nil
}

// restoreTerminal applies a terminal record to j, reporting whether it
// could be trusted. Done-plans re-pass verify.Plan first; failed and
// rejected outcomes restore as recorded. Restored wall time burns the
// tenant's replayed budget.
func (s *Server) restoreTerminal(j *job, term *journalRecord) bool {
	switch term.Op {
	case opDone:
		plan := &lrp.Plan{X: term.Plan}
		if !verify.Plan(j.in, plan, j.req.k(), s.opt.Verify).Ok() {
			return false
		}
		j.status = StatusDone
		j.plan = plan
		j.metrics = term.Metrics
		if term.Metrics != nil {
			s.burnTenant(j.tenant, time.Duration(term.Metrics.WallMs*float64(time.Millisecond)))
		}
	case opFail:
		j.status = StatusFailed
		j.err = errors.New(term.Err)
		if term.Metrics != nil {
			s.burnTenant(j.tenant, time.Duration(term.Metrics.WallMs*float64(time.Millisecond)))
		}
	case opReject:
		j.status = StatusRejected
		j.err = errors.New(term.Err)
	default:
		return false
	}
	close(j.done)
	return true
}

// burnTenant charges replayed solve time against a tenant's budget.
func (s *Server) burnTenant(name string, wall time.Duration) {
	if wall <= 0 {
		return
	}
	t := s.tenants[name]
	if t == nil {
		t = &tenant{tokens: s.opt.Burst, last: s.clock.Now()}
		s.tenants[name] = t
	}
	t.used += wall
}
