package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the metric units, directions and bounds
// the comparison applies.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// verdict compares the runs of one (workload, metric) pair. A side
// whose spread between quartiles, relative to its median, is wider than
// the bound cannot settle a change of that size: the row is unresolved,
// unless every new run reads better than every base run.
func verdict(base, next []float64, better string, bound float64) string {
	if len(base) == 0 || len(next) == 0 {
		return verdictMissing
	}
	q1b, mb, q3b := quartiles(base)
	q1n, mn, q3n := quartiles(next)
	sign := 1.0 // positive worsening = worse
	if better == "higher" {
		sign = -1
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if sign*(n-b) >= 0 {
				allBetter = false
			}
		}
	}
	if rel(q3b-q1b, mb) > bound || rel(q3n-q1n, mn) > bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch worse := sign * rel(mn-mb, mb); {
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// rel is d as a share of the reference value.
func rel(d, ref float64) float64 {
	if ref == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(ref)
}

// runCompare prints one row per (workload, end-to-end metric) and
// exits nonzero if any row is worse or missing.
func runCompare(root, basePath, newPath string) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	next, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-13s %-22s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "base median", "new median", "change", "spread", "bound", "verdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := values(base, w.Name, m.Name), values(next, w.Name, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue // the workload was not run on either side
			}
			v := verdict(b, n, m.Better, m.Bound)
			if v == verdictWorse || v == verdictMissing {
				code = 1
			}
			fmt.Printf("%-13s %-22s %12.6g %12.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, median(b), median(n), 100*rel(median(n)-median(b), median(b)),
				100*math.Max(spread(b), spread(n)), 100*m.Bound, v)
		}
	}
	return code
}

// values collects a metric over the untraced runs of one workload.
func values(r *resultsFile, workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		if m, ok := run.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return rel(q3-q1, m)
}
