package plancache

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lrp"
	"repro/internal/verify"
)

// canonSeq is the fuzz oracle's own independent canonicalization: the
// multiset of (quantized weight, tasks) pairs in sorted order, plus the
// keyed knobs. Two instances are "the same up to epsilon and
// permutation" exactly when their canonSeqs are equal.
func canonSeq(tasks []int, weight []float64, eps float64, p Params, maxLoad float64) []int64 {
	m := len(tasks)
	seq := make([]int64, 0, 2*m+4)
	pairs := make([][2]int64, m)
	for j := 0; j < m; j++ {
		pairs[j] = [2]int64{quantize(weight[j], eps), int64(tasks[j])}
	}
	// insertion sort: the oracle shares no code with the fingerprint
	for i := 1; i < m; i++ {
		for k := i; k > 0; k-- {
			a, b := pairs[k-1], pairs[k]
			if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
				pairs[k-1], pairs[k] = b, a
			} else {
				break
			}
		}
	}
	seq = append(seq, int64(m), int64(p.K), int64(p.Form), quantize(maxLoad, eps))
	for _, pr := range pairs {
		seq = append(seq, pr[0], pr[1])
	}
	return seq
}

func seqEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzFingerprint proves the quantization-canonicalization contract:
// permuted-equal instances collide, epsilon-distinct instances don't,
// and the permutation the fingerprint derives round-trips a verified
// plan through the cache.
func FuzzFingerprint(f *testing.F) {
	f.Add(int64(1), uint8(4), 1e-3, 0.5, int16(3))
	f.Add(int64(7), uint8(1), 1e-9, -2.0, int16(-1))
	f.Add(int64(42), uint8(16), 0.25, 1e17, int16(0))
	f.Add(int64(99), uint8(32), 1e-6, math.MaxFloat64, int16(200))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, eps, bump float64, k int16) {
		if m == 0 || m > 64 {
			return
		}
		if !(eps > 0) || math.IsInf(eps, 0) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(m)
		tasks := make([]int, n)
		weight := make([]float64, n)
		for j := 0; j < n; j++ {
			tasks[j] = rng.Intn(8)
			weight[j] = math.Trunc(rng.Float64()*1e6) * eps / 4
		}
		p := Params{K: int(k), Form: rng.Intn(4)}
		var sc1, sc2 scratch

		fpA := fingerprintInto(&sc1, tasks, weight, eps, p, 0)
		// perm/inv must be inverse permutations of each other.
		for a := 0; a < n; a++ {
			if sc1.perm[a] < 0 || sc1.perm[a] >= n || sc1.inv[sc1.perm[a]] != a {
				t.Fatalf("perm/inv not inverse at %d: perm=%v inv=%v", a, sc1.perm, sc1.inv)
			}
		}

		// Property 1: any permutation of the processes collides.
		perm := rng.Perm(n)
		ptasks := make([]int, n)
		pweight := make([]float64, n)
		for j, src := range perm {
			ptasks[j] = tasks[src]
			pweight[j] = weight[src]
		}
		if fpB := fingerprintInto(&sc2, ptasks, pweight, eps, p, 0); fpA != fpB {
			t.Fatalf("permuted instance changed fingerprint: %x != %x", fpA, fpB)
		}

		// Property 2: fingerprints agree exactly when the independent
		// canonical sequences agree — bumping one weight across an
		// epsilon bucket must change the key, staying inside must not.
		if math.IsNaN(bump) || math.IsInf(bump, 0) {
			return
		}
		btasks := append([]int(nil), tasks...)
		bweight := append([]float64(nil), weight...)
		bweight[rng.Intn(n)] += bump
		fpC := fingerprintInto(&sc2, btasks, bweight, eps, p, 0)
		same := seqEqual(
			canonSeq(tasks, weight, eps, p, 0),
			canonSeq(btasks, bweight, eps, p, 0),
		)
		if same != (fpA == fpC) {
			t.Fatalf("fingerprint/canonical-sequence disagree: seqSame=%v fpSame=%v (bump=%g eps=%g)", same, fpA == fpC, bump, eps)
		}

		// Property 3: a verified plan cached for the instance is served
		// for its permutation and still verifies there.
		if k < 0 {
			return
		}
		vt := append([]int(nil), tasks...)
		for j := range vt {
			vt[j]++ // lrp instances need ≥1 task per process
		}
		vw := make([]float64, n)
		pvt := make([]int, n)
		pvw := make([]float64, n)
		for j := range vw {
			vw[j] = 1 + weight[j]*1e-9
			if math.IsInf(vw[j], 0) {
				return // overflowed fuzz weights aren't valid instances
			}
		}
		for j, src := range perm {
			pvt[j] = vt[src]
			pvw[j] = vw[src]
		}
		in := lrp.MustInstance(vt, vw)
		pin := lrp.MustInstance(pvt, pvw)
		c := New(Config{Epsilon: eps})
		if err := c.Put(in, Params{K: -1}, lrp.NewPlan(in)); err != nil {
			t.Fatalf("Put(identity): %v", err)
		}
		got, ok := c.Get(pin, Params{K: -1})
		if !ok {
			t.Fatal("permuted instance missed its cached plan")
		}
		if rep := verify.Plan(pin, got, -1, verify.Options{}); !rep.Ok() {
			t.Fatalf("served plan failed verify.Plan: %v", rep.Err())
		}
	})
}

// FuzzCacheRecord hardens the journal decoder, which reads bytes back
// from disk: arbitrary input never panics, and whatever decodes
// re-encodes to bytes that decode to the same record (compared by
// encoding, so weights count bit for bit). It also runs the other
// direction: every entry Put accepts, whatever the width of its task
// counts, weights, k and form, journals a record that Load restores to
// the same entry.
func FuzzCacheRecord(f *testing.F) {
	one := &record{p: Params{K: -1}, tasks: []int{1}, weight: []float64{1}, plan: [][]int{{1}}}
	f.Add(appendRecord(nil, one), int64(1), uint8(4), int64(-1), int64(0), uint64(12))
	f.Add(appendRecord(nil, &record{
		p: Params{K: math.MaxInt, Form: math.MinInt}, tasks: []int{math.MaxInt, 0},
		weight: []float64{math.MaxFloat64, math.Copysign(0, -1)}, plan: [][]int{{math.MaxInt, 0}, {0, 0}},
	}), int64(7), uint8(1), int64(math.MaxInt64), int64(math.MinInt64), uint64(math.MaxUint64))
	f.Add([]byte(`{"v":1,"tasks":[1],"weight":[1],"plan":[[1]]}`), int64(3), uint8(16), int64(8), int64(2), uint64(1<<40))
	f.Add([]byte{persistVersion, 1, 0, 2, 1, 1}, int64(9), uint8(2), int64(0), int64(-3), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, m uint8, k, form int64, width uint64) {
		if rec, err := decodeRecord(data); err == nil {
			b := appendRecord(nil, &rec)
			again, err := decodeRecord(b)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v (%x)", err, b)
			}
			if b2 := appendRecord(nil, &again); !bytes.Equal(b2, b) {
				t.Fatalf("encode→decode→encode changed the bytes:\n%x\n%x", b, b2)
			}
		}

		// A random conserving plan over task counts up to width (at
		// most MaxInt) and arbitrary finite non-negative weights.
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(m%16)
		tasks := make([]int, n)
		weight := make([]float64, n)
		plan := lrp.ZeroPlan(n)
		for j := range tasks {
			tasks[j] = int((width >> 1) >> rng.Intn(64))
			weight[j] = math.Abs(math.Float64frombits(rng.Uint64()))
			if math.IsNaN(weight[j]) || math.IsInf(weight[j], 0) {
				weight[j] = float64(j)
			}
			plan.X[j][j] = tasks[j]
			for i := rng.Intn(n); i < n && plan.X[j][j] > 0; i += 1 + rng.Intn(n) {
				moved := int(rng.Int63n(int64(plan.X[j][j])))
				plan.X[j][j] -= moved
				plan.X[i][j] += moved
			}
		}
		j := &memJournal{}
		c := New(Config{Journal: j})
		if c.Put(lrp.MustInstance(tasks, weight), Params{K: int(k), Form: int(form)}, plan) != nil {
			return // over its migration budget
		}
		if len(j.records) != 1 {
			t.Fatalf("accepted Put journaled %d records", len(j.records))
		}
		c2 := New(Config{})
		if kept, rejected := c2.Load(j.records); kept != 1 || rejected != 0 {
			t.Fatalf("Load of an accepted entry = (%d, %d), want (1, 0); record %x", kept, rejected, j.records[0])
		}
		if got, want := c2.Snapshot(), c.Snapshot(); !bytes.Equal(got[0], want[0]) || !bytes.Equal(want[0], j.records[0]) {
			t.Fatalf("entry changed across the journal:\njournal %x\nwant    %x\ngot     %x", j.records[0], want[0], got[0])
		}
	})
}
