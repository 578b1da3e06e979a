package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/obs"
	"repro/internal/solve"
)

// memJournal is an in-memory Journal with optional compaction. Like
// the real *wal.Log it must tolerate concurrent appends.
type memJournal struct {
	mu         sync.Mutex
	records    [][]byte
	compactDue atomic.Bool
	compacted  atomic.Bool
}

func (j *memJournal) Append(rec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, append([]byte(nil), rec...))
	return nil
}

func (j *memJournal) CompactDue() bool { return j.compactDue.Load() }

func (j *memJournal) Compact(records [][]byte) error {
	j.compactDue.Store(false)
	j.compacted.Store(true)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = nil
	for _, r := range records {
		j.records = append(j.records, append([]byte(nil), r...))
	}
	return nil
}

func (j *memJournal) copy() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([][]byte, len(j.records))
	for i, r := range j.records {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

// gateBackend solves the first n jobs instantly, then blocks —
// announcing each blocked solve on blocked — until release closes.
type gateBackend struct {
	n       int64
	blocked chan struct{}
	release chan struct{}
}

func newGate(n int64) *gateBackend {
	return &gateBackend{n: n, blocked: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateBackend) Name() string { return "gate" }

func (g *gateBackend) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if atomic.AddInt64(&g.n, -1) < 0 {
		g.blocked <- struct{}{}
		select {
		case <-g.release:
		case <-ctx.Done():
		}
	}
	x := make([]bool, m.NumVars())
	return &solve.Result{Sample: x, Objective: m.Objective(x), Feasible: m.Feasible(x, 1e-6)}, nil
}

func waitDone(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return j
}

// TestRecoveryRestoresDoneAndRequeuesUnfinished is the restart
// contract: jobs terminal at the crash come back as queryable history
// (plans intact, Recovered set), jobs queued or running at the crash
// re-run to completion, and new ids never collide with recovered ones.
func TestRecoveryRestoresDoneAndRequeuesUnfinished(t *testing.T) {
	clk := fakeClock(t)
	mem := &memJournal{}
	gate := newGate(3)
	s1, err := New(Options{
		Backend: gate, Clock: clk, NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s1.Submit(req("t"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitDone(t, s1, ids[2]) // single worker: 0,1,2 done in order
	<-gate.blocked          // job 3 is mid-solve; job 4 still queued

	// "kill -9": snapshot the journal as the disk would hold it, then
	// tear the old server down out-of-band.
	records := mem.copy()
	close(gate.release)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: clk, NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		Recover: records, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck

	for _, id := range ids[:3] {
		j, err := s2.Job(id)
		if err != nil {
			t.Fatalf("restored job %s: %v", id, err)
		}
		if j.Status != StatusDone || !j.Recovered || j.Plan == nil {
			t.Fatalf("restored job %s = %+v, want done+recovered with plan", id, j)
		}
	}
	for _, id := range ids[3:] {
		j := waitDone(t, s2, id)
		if j.Status != StatusDone || !j.Recovered {
			t.Fatalf("requeued job %s = %+v, want done+recovered", id, j)
		}
	}
	if got := reg.Counter("serve.recovered").Value(); got != 2 {
		t.Fatalf("serve.recovered = %d, want 2", got)
	}
	if got := reg.Counter("serve.recovery_restored").Value(); got != 3 {
		t.Fatalf("serve.recovery_restored = %d, want 3", got)
	}
	// nextID resumed past the recovered ids: a fresh submit gets a new id.
	j, err := s2.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if j.ID == id {
			t.Fatalf("fresh job reused recovered id %s", id)
		}
	}
	if !waitDone(t, s2, j.ID).Recovered == false {
		t.Fatalf("fresh job marked recovered")
	}
}

// TestRecoveryRespectsTenantBudget replays completed wall time into
// the tenant budgets: an exhausted tenant's unfinished jobs fail with
// ErrBudgetExhausted instead of silently re-running.
func TestRecoveryRespectsTenantBudget(t *testing.T) {
	clk := fakeClock(t)
	mem := &memJournal{}
	// Each solve burns 2s of fake wall time, exactly the tenant budget:
	// one completed solve leaves the tenant exhausted.
	s1, err := New(Options{
		Backend: &instantBackend{advance: func() { clk.Advance(2 * time.Second) }},
		Clock:   clk, NoRateLimit: true, Workers: 1, QueueDepth: 16,
		DefaultBudget: time.Hour, TenantBudget: 2 * time.Second, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s1.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, done.ID)

	// Forge an unfinished accept for the same tenant, as if the daemon
	// died right after admitting it.
	rec := appendRecord(nil, &journalRecord{
		Op: opAccept, ID: 99, Req: req("t"), BudgetMs: 1000,
	})
	records := append(mem.copy(), rec)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: clk, NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		TenantBudget: 2 * time.Second, Recover: records,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck
	j, err := s2.Job("j00000099")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusFailed {
		t.Fatalf("over-budget recovered job status = %s, want failed", j.Status)
	}
	if !errors.Is(ErrBudgetExhausted, ErrOverload) || j.Error == "" {
		t.Fatalf("recovered job error = %q, want budget exhaustion", j.Error)
	}
	// The tenant stays exhausted for fresh submissions too.
	if _, err := s2.Submit(req("t")); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("fresh submit err = %v, want ErrBudgetExhausted", err)
	}
}

// TestRecoveryReverifiesDonePlans: a done record whose plan no longer
// passes verify.Plan (bit rot below the WAL's CRC, or a stricter
// config) is demoted to unfinished and re-solved — corrupt state is
// never served as history.
func TestRecoveryReverifiesDonePlans(t *testing.T) {
	accept := appendRecord(nil, &journalRecord{
		Op: opAccept, ID: 1, Req: req("t"), BudgetMs: 1000,
	})
	// Non-conserving plan: cell [0][0] claims 5 of 4 tasks stay.
	done := appendRecord(nil, &journalRecord{
		Op: opDone, ID: 1, Plan: [][]int{{5, 0, 0}, {0, 4, 0}, {0, 0, 4}},
	})
	garbage := []byte("not a record")
	reg := obs.NewRegistry()
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		Recover: [][]byte{accept, done, garbage}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck
	j := waitDone(t, s, "j00000001")
	if j.Status != StatusDone || !j.Recovered {
		t.Fatalf("re-solved job = %+v, want done+recovered", j)
	}
	// The re-solved plan conserves tasks; the corrupt one could not.
	if j.Plan[0][0] == 5 {
		t.Fatal("corrupt journaled plan was served")
	}
	if got := reg.Counter("serve.recovery_corrupt").Value(); got != 1 {
		t.Fatalf("serve.recovery_corrupt = %d, want 1", got)
	}
	if got := reg.Counter("serve.recovery_dropped").Value(); got != 1 {
		t.Fatalf("serve.recovery_dropped = %d, want 1", got)
	}
}

// TestEvictedLookupIs410 pins the eviction contract: an id dropped by
// retention answers ErrEvicted (HTTP 410 Gone, errors.Is
// ErrUnknownJob), a never-issued id stays ErrUnknownJob (404) — and
// the distinction survives a restart through the journal.
func TestEvictedLookupIs410(t *testing.T) {
	mem := &memJournal{}
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		MaxJobs: 1, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	second, err := s.Submit(req("t")) // retention cap 1: evicts first
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, second.ID)

	_, err = s.Job(first.ID)
	if !errors.Is(err, ErrEvicted) || !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("evicted lookup err = %v, want ErrEvicted wrapping ErrUnknownJob", err)
	}
	if lookupStatus(err) != 410 {
		t.Fatalf("lookupStatus(evicted) = %d, want 410", lookupStatus(err))
	}
	_, err = s.Job("j99999999")
	if !errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrEvicted) {
		t.Fatalf("unknown lookup err = %v, want plain ErrUnknownJob", err)
	}
	if lookupStatus(err) != 404 {
		t.Fatalf("lookupStatus(unknown) = %d, want 404", lookupStatus(err))
	}

	records := mem.copy()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		MaxJobs: 1, Recover: records,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck
	if _, err := s2.Job(first.ID); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted lookup after restart = %v, want ErrEvicted", err)
	}
}

// TestJournalCompactionSnapshot: when the journal reports compaction
// due after a terminal transition, the server rewrites it as a state
// snapshot — and recovering from that snapshot reproduces the same
// jobs and eviction memory.
func TestJournalCompactionSnapshot(t *testing.T) {
	mem := &memJournal{}
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		MaxJobs: 1, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	second, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	mem.compactDue.Store(true)
	waitDone(t, s, second.ID) // terminal transition triggers compaction
	if !mem.compacted.Load() {
		t.Fatal("journal never compacted")
	}
	records := mem.copy()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		MaxJobs: 1, Recover: records,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck
	j, err := s2.Job(second.ID)
	if err != nil || j.Status != StatusDone || !j.Recovered {
		t.Fatalf("snapshot-recovered job = %+v (%v), want done+recovered", j, err)
	}
	if _, err := s2.Job(first.ID); !errors.Is(err, ErrEvicted) {
		t.Fatalf("eviction memory lost in compaction: %v", err)
	}
}

// TestTerminalRecordJournaledBeforeDone: by the time a job is seen
// finished its terminal record is already in the journal, and a job
// costs exactly two records — accept and done, no run record.
func TestTerminalRecordJournaledBeforeDone(t *testing.T) {
	mem := &memJournal{}
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 2, QueueDepth: 16, DefaultBudget: time.Hour, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck
	const jobs = 20
	for i := 0; i < jobs; i++ {
		sub, err := s.Submit(req("t"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, sub.ID)
		recs := mem.copy()
		op, id, ok := peekRecord(recs[len(recs)-1])
		if n, _ := parseJobID(sub.ID); !ok || op != opDone || id != n {
			t.Fatalf("job %s seen done, last journal record is op %d for id %d", sub.ID, op, id)
		}
	}
	if got := len(mem.copy()); got != 2*jobs {
		t.Fatalf("%d jobs journaled %d records, want %d", jobs, got, 2*jobs)
	}
}

// holdJournal holds the first done record's Append open until another
// worker's compaction lands or holdFor passes, and reports one
// compaction due from the moment the hold starts: the finishing job
// sits between its terminal append and its status change exactly while
// that compaction could run.
type holdJournal struct {
	memJournal
	holding   atomic.Bool
	due       atomic.Bool
	compacted chan struct{}
}

const holdFor = 200 * time.Millisecond

func (j *holdJournal) CompactDue() bool { return j.due.Swap(false) }

func (j *holdJournal) Append(rec []byte) error {
	err := j.memJournal.Append(rec)
	if op, _, _ := peekRecord(rec); op == opDone && j.holding.CompareAndSwap(false, true) {
		j.due.Store(true)
		select {
		case <-j.compacted:
		case <-time.After(holdFor):
		}
	}
	return err
}

func (j *holdJournal) Compact(records [][]byte) error {
	err := j.memJournal.Compact(records)
	select {
	case j.compacted <- struct{}{}:
	default:
	}
	return err
}

// TestCompactionRacingFinishKeepsTerminalRecord: a compaction run by
// one worker while another job is between its terminal append and its
// status change must not drop that job's terminal record — a replay of
// the final journal restores both jobs as done, re-running neither.
func TestCompactionRacingFinishKeepsTerminalRecord(t *testing.T) {
	mem := &holdJournal{compacted: make(chan struct{})}
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 2, QueueDepth: 16, DefaultBudget: time.Hour, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		j, err := s.Submit(req("t"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitDone(t, s, id)
	}
	records := mem.copy()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
		Recover: records, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck
	if got := reg.Counter("serve.recovered").Value(); got != 0 {
		t.Fatalf("%d finished jobs came back unfinished", got)
	}
	for _, id := range ids {
		if j, err := s2.Job(id); err != nil || j.Status != StatusDone {
			t.Fatalf("job %s after replay = %+v (%v), want done", id, j, err)
		}
	}
}

// compactHoldJournal holds its one due compaction open until an accept
// is appended or holdFor passes, giving a Submit every chance to slip
// its accept in between the snapshot and the rewrite. compacting closes
// when the compaction starts, compacted when it has landed.
type compactHoldJournal struct {
	memJournal
	due                   atomic.Bool
	inCompact             atomic.Bool
	accepted              chan struct{}
	compacting, compacted chan struct{}
}

func (j *compactHoldJournal) CompactDue() bool { return j.due.Swap(false) }

func (j *compactHoldJournal) Append(rec []byte) error {
	err := j.memJournal.Append(rec)
	if op, _, _ := peekRecord(rec); op == opAccept && j.inCompact.Load() {
		select {
		case j.accepted <- struct{}{}:
		default:
		}
	}
	return err
}

func (j *compactHoldJournal) Compact(records [][]byte) error {
	j.inCompact.Store(true)
	close(j.compacting)
	select {
	case <-j.accepted:
	case <-time.After(holdFor):
	}
	err := j.memJournal.Compact(records)
	j.inCompact.Store(false)
	close(j.compacted)
	return err
}

// TestCompactionRacingSubmitKeepsAccept: a job accepted (202) while a
// compaction is pending still exists after a crash — its accept is in
// the journal the compaction leaves behind, not overwritten by a
// snapshot taken before it.
func TestCompactionRacingSubmitKeepsAccept(t *testing.T) {
	mem := &compactHoldJournal{
		accepted:   make(chan struct{}, 1),
		compacting: make(chan struct{}),
		compacted:  make(chan struct{}),
	}
	mem.due.Store(true)
	s, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour, Journal: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background()) //nolint:errcheck
	first, err := s.Submit(req("t"))
	if err != nil {
		t.Fatal(err)
	}
	<-mem.compacting // first's finish is compacting the journal
	type result struct {
		j   *Job
		err error
	}
	submitted := make(chan result, 1)
	go func() {
		j, err := s.Submit(req("t"))
		submitted <- result{j, err}
	}()
	second := <-submitted
	if second.err != nil {
		t.Fatal(second.err)
	}
	<-mem.compacted
	records := mem.copy() // kill -9 right after the 202

	s2, err := New(Options{
		Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
		Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour, Recover: records,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background()) //nolint:errcheck
	for _, id := range []string{first.ID, second.j.ID} {
		if _, err := s2.Job(id); err != nil {
			t.Fatalf("job %s answered 202 but is gone after replay: %v", id, err)
		}
	}
}

// TestRecoveryKeepsFullWidthRequest: a job whose k and budget_ms do not
// fit 32 bits, or whose budget_ms does not fit a time.Duration, is
// answered done and replays as done: the journal keeps both at full
// width and the budget is clamped to MaxBudget before it can overflow.
func TestRecoveryKeepsFullWidthRequest(t *testing.T) {
	for _, tc := range []struct {
		name        string
		k, budgetMs int
	}{
		{"over 32 bits", 3_000_000_000, 3_000_000_000},
		{"budget over a Duration", 0, 10_000_000_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &memJournal{}
			s, err := New(Options{
				Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
				Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour, Journal: mem,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := req("t")
			r.K, r.BudgetMs = tc.k, tc.budgetMs
			sub, err := s.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			if j := waitDone(t, s, sub.ID); j.Status != StatusDone {
				t.Fatalf("job = %+v, want done", j)
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			s2, err := New(Options{
				Backend: &instantBackend{}, Clock: fakeClock(t), NoRateLimit: true,
				Workers: 1, QueueDepth: 16, DefaultBudget: time.Hour,
				Recover: mem.copy(), Obs: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Drain(context.Background()) //nolint:errcheck
			if got := reg.Counter("serve.recovery_dropped").Value(); got != 0 {
				t.Fatalf("%d records dropped at replay", got)
			}
			if j, err := s2.Job(sub.ID); err != nil || j.Status != StatusDone || !j.Recovered {
				t.Fatalf("job after replay = %+v (%v), want done+recovered", j, err)
			}
		})
	}
}
