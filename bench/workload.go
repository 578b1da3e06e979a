package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/lrp"
	"repro/internal/mxm"
	"repro/internal/serve"
)

// daemonFlags is the part of a qulrbd configuration a workload pins.
// Every workload also runs with -fsync always and -rate 0: the fsync
// policy is the durable configuration qulrbd ships, and the default
// per-tenant rate limit (10/s) would refuse the load generator's single
// tenant long before the daemon is busy.
type daemonFlags struct {
	backend   string        // -backends: "sa" or "hybrid"
	cache     int           // -cache capacity in entries
	maxBudget time.Duration // -max-budget; 0 keeps the daemon default
}

// args renders the flags for cmd/qulrbd.
func (f daemonFlags) args(stateDir, addr string) []string {
	a := []string{
		"-addr", addr, "-state-dir", stateDir, "-fsync", "always", "-rate", "0",
		"-backends", f.backend, "-cache", strconv.Itoa(f.cache),
	}
	if f.maxBudget > 0 {
		a = append(a, "-max-budget", f.maxBudget.String())
	}
	return a
}

// workload is one traffic mix. Its request sizes, daemon flags, phase
// sizes, open-loop rate and latency limit are fixed here and never
// follow the code under test: the rate was calibrated once to about
// half of the closed-loop throughput measured at the commit that
// introduced the benchmark.
type workload struct {
	name string
	// flags pins the daemon configuration.
	flags daemonFlags
	// warmup is the untimed closed-loop request count before the kill -9.
	warmup int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// limitMs is the latency limit behind slo_met_share.
	limitMs float64
	// openMultiple rounds the open-loop request count, so a workload that
	// cycles through base instances sends each equally often.
	openMultiple int
	// source builds the seeded request generator.
	source func(seed int64) (source, error)
}

// workloads lists every workload, in the order a full run executes them.
var workloads = []*workload{
	{
		// Serving overhead: ~1 ms sa solves of unique small instances.
		name:    "tiny-durable",
		flags:   daemonFlags{backend: "sa", cache: 1024},
		warmup:  2000,
		rate:    250,
		limitMs: 25,
		source:  func(seed int64) (source, error) { return tinySource(seed), nil },
	},
	{
		// The paper's problem sizes on the hybrid backend.
		name:         "paper-scale",
		flags:        daemonFlags{backend: "hybrid", cache: 1024, maxBudget: 20 * time.Second},
		warmup:       8,
		rate:         1.8,
		limitMs:      1000,
		openMultiple: 4,
		source:       paperSource,
	},
	{
		// Permuted repeats of fixed shapes: the plan cache's read side.
		name:    "bsp-rounds",
		flags:   daemonFlags{backend: "hybrid", cache: 4096},
		warmup:  3000,
		rate:    400,
		limitMs: 25,
		source:  func(seed int64) (source, error) { return bspSource(seed), nil },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phasePlan sizes one run's phases.
type phasePlan struct {
	warmup int           // closed-loop requests before the restart
	closed time.Duration // closed-loop measurement
	open   int           // open-loop request count
	rate   float64       // open-loop arrivals per second
	probe  int           // instances the traced run's stage probe solves
}

// restarts is how many kill -9 + restart cycles setup_s takes the
// median of.
const restarts = 9

// plan splits a run of the given length: a quarter closed loop, three
// quarters open loop. The open loop sends a fixed request count, so the
// sample behind every percentile is the same size on every commit.
func (w *workload) plan(seconds int) phasePlan {
	d := time.Duration(seconds) * time.Second
	n := int(math.Round(w.rate * (d - d/4).Seconds()))
	if m := w.openMultiple; m > 1 {
		n = (n + m - 1) / m * m
	}
	return phasePlan{warmup: w.warmup, closed: d / 4, open: max(n, 1), rate: w.rate, probe: 4}
}

// Request streams: each phase draws from its own stream, so a request
// is a pure function of (seed, stream, index).
const (
	streamWarmup = iota + 1
	streamClosed
	streamOpen
	streamProbe
	streamTraced // the traced run's traced closed-loop half
)

// genReq is one generated request: the wire body the daemon receives,
// the instance and migration budget the bench verifies against, and
// when the generator first polls for the result.
type genReq struct {
	body      []byte
	in        *lrp.Instance
	k         int // verify.Plan budget; -1 = unconstrained
	firstPoll time.Duration
}

// source generates the i-th request of a stream.
type source func(stream, i int) genReq

// reqSeed is the per-request solver seed: unique within a run, so
// solver spans can be tied back to their request.
func reqSeed(stream, i int) int64 { return int64(stream)<<32 | int64(i+1) }

// reqRand is the request's private random stream.
func reqRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)<<32|uint64(i)))
}

// makeReq encodes a request and builds the instance it describes. The
// first poll goes at a seeded point between half and one and a half
// times pollFirst after the 202: with one fixed poll grid, a latency
// percentile jumps from one grid step to the next when the system
// moves a little; spreading the grid per request keeps it continuous.
func makeReq(r *rand.Rand, tasks []int, weights []float64, k, budgetMs int, seed int64) genReq {
	body, err := json.Marshal(serve.Request{Tasks: tasks, Weights: weights, K: k, BudgetMs: budgetMs, Seed: seed})
	if err != nil {
		panic(err) // plain slices and numbers always encode
	}
	in, err := lrp.NewInstance(tasks, weights)
	if err != nil {
		panic(err) // generators only produce valid shapes
	}
	vk := -1
	if k > 0 {
		vk = k
	}
	firstPoll := time.Duration((0.5 + r.Float64()) * float64(pollFirst))
	return genReq{body: body, in: in, k: vk, firstPoll: firstPoll}
}

func uniformTasks(m, n int) []int {
	t := make([]int, m)
	for j := range t {
		t[j] = n
	}
	return t
}

// tinySource draws unique instances: M in [3,6], n in [2,8] tasks per
// process, weights U[1,8), unconstrained.
func tinySource(seed int64) source {
	return func(stream, i int) genReq {
		r := reqRand(seed, stream, i)
		m, n := 3+r.IntN(4), 2+r.IntN(7)
		w := make([]float64, m)
		for j := range w {
			w[j] = 1 + 7*r.Float64()
		}
		return makeReq(r, uniformTasks(m, n), w, 0, 0, reqSeed(stream, i))
	}
}

// paperBase is one of the paper-scale base instances.
type paperBase struct {
	in *lrp.Instance
	k  int
}

// paperSource cycles through the paper's four base instances; each
// request perturbs every weight by up to ±5% so it misses the cache.
// The base instances are fixed (the sam(oa)2 simulation and the MxM
// generator seed do not depend on the workload seed); the seed drives
// the perturbations and solver seeds.
func paperSource(seed int64) (source, error) {
	sam, err := experiments.SamoaInput(experiments.DefaultSamoaParams())
	if err != nil {
		return nil, fmt.Errorf("sam(oa)2 input: %w", err)
	}
	cm := mxm.DefaultCostModel()
	bases := []paperBase{
		{sam, 1216},
		{sam, 0},
		{mxm.VaryProcsCase(16, cm, 2024).Instance, 0},
		{mxm.VaryProcsCase(32, cm, 2024).Instance, 0},
	}
	return func(stream, i int) genReq {
		b := bases[i%len(bases)]
		r := reqRand(seed, stream, i)
		w := make([]float64, len(b.in.Weight))
		for j, x := range b.in.Weight {
			w[j] = x * (1 + 0.1*(r.Float64()-0.5))
		}
		return makeReq(r, append([]int(nil), b.in.Tasks...), w, b.k, 10000, reqSeed(stream, i))
	}, nil
}

// bspSource draws process permutations of 32 fixed shapes (M in
// {8,12,16}, 16 tasks per process, k=16). Every freshEvery-th request
// scales one weight, which gives it a fresh fingerprint. The shapes do
// not depend on the seed, so the plans the cache holds, and with them
// the served quality, are the same for every seed; the seed picks the
// shape, the permutation and the scaling of each request.
func bspSource(seed int64) source {
	// One fresh request in 200: a hybrid solve holds both cores for
	// 40-130 ms, and the hits served meanwhile slow down. At one in 100
	// that slowed share was about a fifth of all requests, and the 75th
	// latency percentile sat on its edge, reading 2.3 ms in most runs and
	// 3.5-7 ms in some.
	const freshEvery = 200
	const shapes, n, k = 32, 16, 16
	r := rand.New(rand.NewPCG(2024, 0))
	base := make([][]float64, shapes)
	for s := range base {
		base[s] = make([]float64, []int{8, 12, 16}[s%3])
		for j := range base[s] {
			base[s][j] = 1 + 7*r.Float64()
		}
	}
	return func(stream, i int) genReq {
		r := reqRand(seed, stream, i)
		shape := r.IntN(shapes)
		fresh := i%freshEvery == freshEvery-1
		if fresh {
			// Fresh requests cycle through the shapes, so every run pays
			// for the same mix of solve sizes.
			shape = i / freshEvery % shapes
		}
		b := base[shape]
		w := make([]float64, len(b))
		for j, p := range r.Perm(len(b)) {
			w[j] = b[p]
		}
		if fresh {
			w[r.IntN(len(w))] *= 1.05 + 0.45*r.Float64()
		}
		return makeReq(r, uniformTasks(len(w), n), w, k, 0, reqSeed(stream, i))
	}
}
