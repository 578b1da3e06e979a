package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cqm"
	"repro/internal/solve"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans are written one JSON
// object per line; times are microseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req ties the span to a request: the job id for HTTP spans, "seed:N"
	// (the request's unique solver seed) for solver spans.
	Req     string `json:"req,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	Bytes   int    `json:"bytes,omitempty"`
	// Engine spans carry the solver's own work counters.
	Flips         int64 `json:"flips,omitempty"`
	Reads         int   `json:"reads,omitempty"`
	FeasibleReads int   `json:"feasible_reads,omitempty"`
	Interrupted   bool  `json:"interrupted,omitempty"`
}

func (s *span) us() float64 { return float64(s.EndUs - s.StartUs) }

// tracer keeps spans in memory until the run ends. Recording is off
// until on is set, so the untraced half of a run pays one atomic load
// per wrapped call.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recorder captures a response's size and, when keep is set, its body.
type recorder struct {
	http.ResponseWriter
	n    int
	keep bool
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.n += len(b)
	if r.keep {
		r.body.Write(b)
	}
	return r.ResponseWriter.Write(b)
}

// handler times every HTTP request serve.Handler answers.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		solve := r.Method == http.MethodPost && r.URL.Path == "/solve"
		rec := &recorder{ResponseWriter: w, keep: solve}
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		s := span{ID: t.next.Add(1), Name: "http.other", StartUs: t.since(start), EndUs: t.since(end), Bytes: rec.n}
		switch {
		case solve:
			s.Name = "http.solve"
			var acc struct{ ID string }
			if json.Unmarshal(rec.body.Bytes(), &acc) == nil {
				s.Req = acc.ID
			}
		case strings.HasPrefix(r.URL.Path, "/jobs/"):
			s.Name = "http.job"
			s.Req = strings.TrimPrefix(r.URL.Path, "/jobs/")
		}
		t.add(s)
	})
}

// tracedLog times a WAL's appends and compactions. It forwards
// CompactDue and Compact, so it satisfies serve.Compactor and
// plancache.Compactor and compaction still happens.
type tracedLog struct {
	log  *wal.Log
	name string // "serve" or "plancache"
	t    *tracer
}

func (j *tracedLog) Append(rec []byte) error {
	if !j.t.on.Load() {
		return j.log.Append(rec)
	}
	start := time.Now()
	err := j.log.Append(rec)
	j.t.add(span{ID: j.t.next.Add(1), Name: "wal." + j.name + ".append", StartUs: j.t.since(start), EndUs: j.t.since(time.Now()), Bytes: len(rec)})
	return err
}

func (j *tracedLog) CompactDue() bool { return j.log.CompactDue() }

func (j *tracedLog) Compact(records [][]byte) error {
	if !j.t.on.Load() {
		return j.log.Compact(records)
	}
	start := time.Now()
	err := j.log.Compact(records)
	j.t.add(span{ID: j.t.next.Add(1), Name: "wal." + j.name + ".compact", StartUs: j.t.since(start), EndUs: j.t.since(time.Now())})
	return err
}

// parentKey carries the router span's id to the engine spans it causes.
type parentKey struct{}

// tracedSolver times a solve.Solver. The router's wrapper (root) puts
// its span id on the context; an engine's wrapper records it as the
// parent, so route self time is the route span minus its engine
// children.
type tracedSolver struct {
	inner solve.Solver
	name  string
	root  bool
	t     *tracer
}

func (s *tracedSolver) Name() string { return s.inner.Name() }

func (s *tracedSolver) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if !s.t.on.Load() {
		return s.inner.Solve(ctx, m, opts...)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sp := span{ID: s.t.next.Add(1), Name: s.name, Req: "seed:" + strconv.FormatInt(solve.NewConfig(opts...).Seed, 10)}
	if p, ok := ctx.Value(parentKey{}).(int64); ok {
		sp.Parent = p
	}
	if s.root {
		ctx = context.WithValue(ctx, parentKey{}, sp.ID)
	}
	start := time.Now()
	res, err := s.inner.Solve(ctx, m, opts...)
	sp.StartUs, sp.EndUs = s.t.since(start), s.t.since(time.Now())
	if res != nil {
		sp.Flips, sp.Reads, sp.FeasibleReads = res.Stats.Flips, res.Stats.Reads, res.Stats.FeasibleReads
		sp.Interrupted = res.Stats.Interrupted
	}
	s.t.add(sp)
	return res, err
}
