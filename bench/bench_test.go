package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/lrp"
	"repro/internal/serve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, declared []string, emitted map[string]metric) {
	t.Helper()
	got := sortedNames(emitted)
	if len(got) != len(declared) {
		t.Fatalf("%s: BENCHMARK.json declares %v, the bench emits %v", what, declared, got)
	}
	for i := range got {
		if got[i] != declared[i] {
			t.Fatalf("%s: BENCHMARK.json declares %v, the bench emits %v", what, declared, got)
		}
	}
	for _, n := range got {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: metric name %q", what, n)
		}
	}
}

// The same seed must give byte-identical requests; another seed must not.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := w.source(2024)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.source(2024)
		c, _ := w.source(7)
		differ := false
		for _, stream := range []int{streamWarmup, streamClosed, streamOpen} {
			for i := 0; i < 50; i++ {
				ra, rb, rc := a(stream, i), b(stream, i), c(stream, i)
				if !bytes.Equal(ra.body, rb.body) {
					t.Fatalf("%s: request %d/%d differs under the same seed", w.name, stream, i)
				}
				differ = differ || !bytes.Equal(ra.body, rc.body)
				var req serve.Request
				if err := json.Unmarshal(ra.body, &req); err != nil {
					t.Fatal(err)
				}
				if err := req.Validate(serve.Limits{}); err != nil {
					t.Fatalf("%s: generated request rejected: %v", w.name, err)
				}
			}
		}
		if !differ {
			t.Errorf("%s: seeds 2024 and 7 generate the same requests", w.name)
		}
	}
}

// BENCHMARK.json and the metrics the bench emits must agree in both
// directions.
func TestBenchmarkJSONMatchesEmittedNames(t *testing.T) {
	s := spec(t)
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the bench has %d", declared, len(workloads))
	}
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench default %d", s.RunSeconds, defaultSeconds)
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("malformed metric %+v", m)
		}
	}

	var open []outcome
	var ok []bool
	for i := 0; i < 5000; i++ {
		due := time.Now().Add(time.Duration(i) * time.Millisecond)
		open = append(open, outcome{
			due: due, sent: due, end: due.Add(3 * time.Millisecond),
			job: &serve.Job{Metrics: &serve.Metrics{ImbalanceAfter: 0.1, Speedup: 1.5}},
		})
		ok = append(ok, true)
	}
	for _, w := range workloads {
		e2e, _, invalid := endToEnd(w, e2eInput{
			setup: []time.Duration{time.Second}, closed: open, closedOK: ok,
			open: open, openOK: ok, cpu: time.Second, rssMiB: 20,
		})
		if len(invalid) != 0 {
			t.Errorf("%s: %v", w.name, invalid)
		}
		sameNames(t, "end_to_end "+w.name, names(s.EndToEnd), e2e)
	}
	sameNames(t, "per_layer", names(s.PerLayer), layerMetrics(layerInput{traced: open, tracedOK: ok, open: open, offRPS: 1, onRPS: 1}))
}

func TestPercentileAbsentWithoutTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{40, 0.75, 30, true},
		{39, 0.75, 30, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		base, next []float64
		better     string
		want       string
	}{
		{steady, []float64{100, 100, 101, 99, 100}, "lower", verdictUnchanged},
		{steady, []float64{120, 121, 119, 120, 120}, "lower", verdictWorse},
		{steady, []float64{120, 121, 119, 120, 120}, "higher", verdictBetter},
		{steady, []float64{60, 140, 100, 70, 130}, "lower", verdictUnresolved},
		{steady, nil, "lower", verdictMissing},
	} {
		if got := verdict(c.base, c.next, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.base, c.next, c.better, got, c.want)
		}
	}
}

// A traced in-process run of 20 requests per workload passes every
// check, emits every per-layer metric and writes its span file.
func TestTracedSmoke(t *testing.T) {
	s := spec(t)
	dir := t.TempDir()
	e := &env{root: "..", work: dir, out: dir, conns: 2}
	for _, w := range workloads {
		if raceEnabled && w.name == "paper-scale" {
			// Its queued solves outlive their 10 s budget under -race;
			// bsp-rounds runs the same hybrid path on smaller instances.
			t.Log("paper-scale skipped under the race detector")
			continue
		}
		pp := phasePlan{warmup: 4, closed: time.Millisecond, open: 12, rate: 200, probe: 1}
		res, err := runTraced(e, w, 2024, pp)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d violations=%v invalid=%v", w.name, res.Correct, res.Failed, res.Violations, res.Invalid)
		}
		if res.Attempted < 20 {
			t.Errorf("%s: %d requests, want at least 20", w.name, res.Attempted)
		}
		sameNames(t, "per_layer "+w.name, names(s.PerLayer), res.Metrics)

		f, err := os.Open(filepath.Join(dir, "trace-"+w.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var sp span
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				t.Fatalf("%s: span line %q: %v", w.name, sc.Text(), err)
			}
			if sp.EndUs < sp.StartUs {
				t.Errorf("%s: span %+v ends before it starts", w.name, sp)
			}
			seen[sp.Name] = true
		}
		f.Close()
		for _, n := range []string{"http.solve", "http.job", "wal.serve.append", "route", "engine." + w.flags.backend} {
			if !seen[n] {
				t.Errorf("%s: no %s span", w.name, n)
			}
		}
	}
}

// The bench's verification must reject a plan that loses a task.
func TestCheckerRejectsBadPlan(t *testing.T) {
	in := lrp.MustInstance([]int{2, 2}, []float64{1, 3})
	req := genReq{in: in, k: -1}
	ck := &checker{}
	bad := &serve.Job{Procs: 2, Plan: [][]int{{2, 0}, {0, 1}}, Metrics: &serve.Metrics{}}
	if err := ck.plan(req, bad); err == nil {
		t.Fatal("a plan that drops a task passed")
	}
	ev := lrp.Evaluate(in, &lrp.Plan{X: [][]int{{2, 1}, {0, 1}}})
	good := &serve.Job{Procs: 2, Plan: [][]int{{2, 1}, {0, 1}}, Metrics: &serve.Metrics{
		ImbalanceBefore: in.Imbalance(), ImbalanceAfter: ev.Imbalance, Speedup: ev.Speedup,
	}}
	if err := ck.plan(req, good); err != nil {
		t.Fatal(err)
	}
	good.Metrics.Speedup *= 1.01
	if err := ck.plan(req, good); err == nil {
		t.Fatal("a misreported speedup passed")
	}
}
