// Command bench is the end-to-end benchmark of the qulrbd daemon. It
// builds cmd/qulrbd, drives it over HTTP with a seeded load generator
// on three workloads, checks every plan it is served, and prints the
// end-to-end metrics. With -trace it composes the same layers in
// process and reports per-layer metrics from timing wrappers around
// each layer's public functions.
//
// From the repository root:
//
//	bash bench/run.sh --workload tiny-durable --seed 2024   # one workload, as BENCHMARK.json runs it
//	bash bench/run.sh --seed 2024                           # every workload
//	bash bench/run.sh --trace 1                             # per-layer metrics and span files
//	bash bench/run.sh --repeat 5 --out bench/out/a.json     # five runs per workload
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, for the last run made. The
// process exits nonzero if any check failed or any run was invalid.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the measured length of one run; BENCHMARK.json's
// run_seconds is the same value.
const defaultSeconds = 30

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run only this workload (default: all)")
		seed    = fs.Int64("seed", 2024, "workload seed: the same seed generates the same requests")
		seconds = fs.Int("seconds", defaultSeconds, "measured length of one run in seconds")
		trace   = fs.Bool("trace", false, "compose the layers in process and report per-layer metrics")
		repeat  = fs.Int("repeat", 1, "runs per workload")
		compare = fs.Bool("compare", false, "compare two results files: -compare BASE.json NEW.json")
		root    = fs.String("root", "", "repository root (default: the nearest ancestor holding cmd/qulrbd)")
		out     = fs.String("out", "", "results file (default <root>/bench/out/results.json)")
	)
	if err := fs.Parse(normalizeBoolArgs(args)); err != nil {
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		*root = r
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes BASE.json NEW.json")
			return 2
		}
		return runCompare(*root, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	e := &env{
		root:  *root,
		work:  filepath.Join(*root, ".bench_build"),
		out:   filepath.Join(*root, "bench", "out"),
		conns: runtime.NumCPU(),
	}
	runtime.GOMAXPROCS(e.conns)
	if *out == "" {
		*out = filepath.Join(e.out, "results.json")
	}
	for _, d := range []string{e.work, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	file := resultsFile{Validity: collectValidity(e, *seed, *seconds)}
	code := 0
	var last *runResult
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			var res *runResult
			var err error
			if *trace {
				res, err = runTraced(e, w, *seed, w.plan(*seconds))
			} else {
				res, err = runDaemon(e, w, *seed, *seconds)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res.Seconds = *seconds
			report(res)
			file.Runs = append(file.Runs, *res)
			if !res.Correct {
				code = 1
			}
			last = res
		}
	}
	if err := writeJSON(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: results written to", *out)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// normalizeBoolArgs rewrites "-trace 0" and "-trace 1" (either dash
// form) as "-trace=0" and "-trace=1": the flag package reads a bare
// boolean flag as true and would take the digit for a positional
// argument.
func normalizeBoolArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "qulrbd")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/qulrbd) above the working directory")
		}
		dir = parent
	}
}

// report prints one run for a human reader.
func report(r *runResult) {
	mode := "daemon"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %d s)\n", r.Workload, mode, r.Seed, r.Seconds)
	for _, t := range r.Tallies {
		fmt.Println("  ", t)
	}
	for _, n := range sortedNames(r.Metrics) {
		m := r.Metrics[n]
		fmt.Printf("   %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedNames(r.Info) {
		m := r.Info[n]
		fmt.Printf("   %-34s %14.6g %s (not compared)\n", n, m.Value, m.Unit)
	}
	for _, v := range r.Violations {
		fmt.Println("   VIOLATION", v)
	}
	for _, v := range r.Invalid {
		fmt.Println("   INVALID", v)
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// resultsFile is what a run writes: the validity record and every run.
type resultsFile struct {
	Validity validity    `json:"validity"`
	Runs     []runResult `json:"runs"`
}

// validity records the conditions a result was measured under.
type validity struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"connection_cap"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func collectValidity(e *env, seed int64, seconds int) validity {
	return validity{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns:      e.conns,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(e.root),
		Seed:       seed,
		Seconds:    seconds,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout without .git (an exported tree) reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
