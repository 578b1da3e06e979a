package plancache

import (
	"math/rand"
	"testing"

	"repro/internal/lrp"
	"repro/internal/obs"
)

// TestPerfGateCacheHitZeroAlloc is the merge-blocking allocation gate:
// a warm cache hit through GetInto — fingerprint, canonical sort, LRU
// lookup, permutation map-back, and the mandatory verify-on-hit pass —
// must perform zero heap allocations. This is what makes verify-on-hit
// affordable on every round of a hot rebalance loop.
func TestPerfGateCacheHitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 32)
	plan := randPlan(rng, in, 64)
	c := New(Config{Obs: obs.NewRegistry()})
	if err := c.Put(in, Params{K: -1}, plan); err != nil {
		t.Fatal(err)
	}
	dst := lrp.ZeroPlan(32)
	missed := false
	hit := func() {
		if !c.GetInto(dst, in, Params{K: -1}) {
			missed = true
		}
	}
	hit() // warm the pooled verify scratch
	allocs := testing.AllocsPerRun(200, hit)
	if missed {
		t.Fatal("warm GetInto missed")
	}
	if allocs != 0 {
		t.Fatalf("warm cache hit allocates %.1f times per op, want 0", allocs)
	}
}

// TestPerfGateLoadStopsAtCapacity: a journal of 2×Capacity records
// whose older half is garbage loads Capacity entries and rejects
// nothing, which shows that Load never reads a record the cache would
// evict — a restart costs O(live entries), not O(journaled Puts).
func TestPerfGateLoadStopsAtCapacity(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(5))
	j := &memJournal{}
	c := New(Config{Journal: j, Capacity: capacity})
	putN(t, c, rng, capacity)
	if c.Len() != capacity {
		t.Fatalf("cache holds %d entries, want %d distinct", c.Len(), capacity)
	}
	records := make([][]byte, 0, 2*capacity)
	for i := 0; i < capacity; i++ {
		records = append(records, []byte("not a record"))
	}
	records = append(records, j.records...)
	c2 := New(Config{Capacity: capacity})
	if kept, rejected := c2.Load(records); kept != capacity || rejected != 0 {
		t.Fatalf("Load = (%d, %d), want (%d, 0)", kept, rejected, capacity)
	}
}
