package plancache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/verify"
	"repro/internal/wal"
)

// memJournal is an in-memory Journal with optional scripted failures
// and optional compaction support.
type memJournal struct {
	records    [][]byte
	failNext   bool
	compactDue bool
	compacted  [][]byte
}

func (j *memJournal) Append(rec []byte) error {
	if j.failNext {
		j.failNext = false
		return errors.New("journal down")
	}
	j.records = append(j.records, append([]byte(nil), rec...))
	return nil
}

func (j *memJournal) CompactDue() bool { return j.compactDue }

func (j *memJournal) Compact(records [][]byte) error {
	j.compactDue = false
	j.compacted = records
	j.records = nil
	for _, r := range records {
		j.records = append(j.records, append([]byte(nil), r...))
	}
	return nil
}

// putN journals n random verified plans into c and returns the
// instances and params used, permuting half the instances on the way
// in so canonicalization is exercised.
func putN(t *testing.T, c *Cache, rng *rand.Rand, n int) ([]*lrp.Instance, []Params) {
	t.Helper()
	ins := make([]*lrp.Instance, n)
	ps := make([]Params, n)
	for i := range ins {
		in := randInstance(rng, 4+rng.Intn(5))
		plan := randPlan(rng, in, 6)
		p := Params{K: -1}
		if err := c.Put(in, p, plan); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		ins[i], ps[i] = in, p
	}
	return ins, ps
}

// TestJournalRoundTripThroughWAL is the restart story end to end: puts
// journaled through a real WAL, the process "dies", a fresh cache
// loads the replayed records and serves every original instance.
func TestJournalRoundTripThroughWAL(t *testing.T) {
	dir := t.TempDir()
	log, recs, err := wal.Open(wal.Options{Dir: dir, Name: "plancache", Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	rng := rand.New(rand.NewSource(7))
	c := New(Config{Journal: log})
	ins, ps := putN(t, c, rng, 12)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs, err := wal.Open(wal.Options{Dir: dir, Name: "plancache", Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs) != 12 {
		t.Fatalf("replayed %d records, want 12", len(recs))
	}
	reg := obs.NewRegistry()
	c2 := New(Config{Journal: log2, Obs: reg})
	kept, rejected := c2.Load(recs)
	if kept != 12 || rejected != 0 {
		t.Fatalf("Load = (%d, %d), want (12, 0)", kept, rejected)
	}
	if v := reg.Counter("plancache.loads").Value(); v != 12 {
		t.Fatalf("plancache.loads = %d, want 12", v)
	}
	for i, in := range ins {
		plan, ok := c2.Get(in, ps[i])
		if !ok {
			t.Fatalf("instance %d missed after reload", i)
		}
		rep := verify.Plan(in, plan, ps[i].K, verify.Options{})
		if !rep.Ok() {
			t.Fatalf("instance %d served unverifiable plan: %v", i, rep.Err())
		}
	}
	// Loading must not have re-journaled: the log still holds 12 records.
	if st := log2.Stats(); st.Appends != 0 {
		t.Fatalf("Load re-journaled %d records", st.Appends)
	}
}

// TestLoadDropsCorruptAndMalformedRecords feeds Load one record of
// every failure class; each is rejected and counted, and the corrupted
// plan is never served.
func TestLoadDropsCorruptAndMalformedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	j := &memJournal{}
	c := New(Config{Journal: j})
	ins, ps := putN(t, c, rng, 3)

	good := j.records
	// Corrupt record 0's plan: break conservation by dropping one task.
	rec, err := decodeRecord(good[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.plan {
		if rec.plan[i][0] > 0 {
			rec.plan[i][0]--
			break
		}
	}
	corrupt := appendRecord(nil, &rec)
	wrongVersion := append([]byte(nil), good[1]...)
	wrongVersion[0] = 99
	// Two task counts but one weight: the bytes cannot line up.
	shapeMismatch := appendRecord(nil, &record{
		p: Params{K: -1}, tasks: []int{1, 2}, weight: []float64{1}, plan: [][]int{{1, 0}, {0, 2}},
	})
	invalidInstance := appendRecord(nil, &record{
		p: Params{K: -1}, tasks: []int{1}, weight: []float64{-1}, plan: [][]int{{1}},
	})

	bad := [][]byte{
		corrupt,
		good[1][:len(good[1])-1], // truncated
		wrongVersion,
		[]byte(`{"v":1,"tasks":[1],"weight":[1],"plan":[[1]]}`), // version 1 (JSON)
		shapeMismatch,
		invalidInstance,
	}
	reg := obs.NewRegistry()
	c2 := New(Config{Obs: reg})
	kept, rejected := c2.Load(append(bad, good[1], good[2]))
	if kept != 2 || rejected != len(bad) {
		t.Fatalf("Load = (%d, %d), want (2, %d)", kept, rejected, len(bad))
	}
	if v := reg.Counter("plancache.load_rejects").Value(); v != int64(len(bad)) {
		t.Fatalf("load_rejects = %d, want %d", v, len(bad))
	}
	// The corrupted entry is absent: its instance misses.
	if _, ok := c2.Get(ins[0], ps[0]); ok {
		t.Fatal("corrupt journal record was served")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c2.Get(ins[i], ps[i]); !ok {
			t.Fatalf("clean record %d missed", i)
		}
	}
}

// encode is the journal record of plan for (in, p), in whatever
// process order in has — a permuted instance makes a non-canonical
// record.
func encode(in *lrp.Instance, p Params, plan *lrp.Plan) []byte {
	return appendRecord(nil, &record{p: p, tasks: in.Tasks, weight: in.Weight, plan: plan.X})
}

// replayInOrder is the reference Load: every record, oldest first,
// through the live put gate.
func replayInOrder(c *Cache, records [][]byte) {
	for _, b := range records {
		rec, err := decodeRecord(b)
		if err != nil {
			continue
		}
		in, err := lrp.NewInstance(rec.tasks, rec.weight)
		if err != nil {
			continue
		}
		_ = c.Put(in, rec.p, &lrp.Plan{X: rec.plan}) // a refused Put is a load reject
	}
}

// TestLoadMatchesInOrderReplay is the newest-first walk's contract. On
// random journals — repeated fingerprints carrying fresher plans,
// permuted (non-canonical) records, corrupt plans, plans over their
// migration budget, undecodable bytes, more distinct entries than
// Capacity — loaded into a cache that already holds entries, Load
// leaves exactly the Snapshot bytes (contents and LRU order) that an
// in-order replay of every record through Put leaves.
func TestLoadMatchesInOrderReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	params := []Params{{K: -1}, {K: 4, Form: 1}}
	for iter := 0; iter < 400; iter++ {
		capacity := 1 + rng.Intn(8)
		pool := make([]*lrp.Instance, capacity+rng.Intn(2*capacity+1))
		for i := range pool {
			pool[i] = randInstance(rng, 2+rng.Intn(4))
		}
		pick := func() (*lrp.Instance, Params, *lrp.Plan) {
			in := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				in, _ = permuted(rng, in)
			}
			return in, params[rng.Intn(len(params))], randPlan(rng, in, rng.Intn(4))
		}
		var records [][]byte
		for n := rng.Intn(4*capacity + 2); n > 0; n-- {
			in, p, plan := pick()
			switch rng.Intn(8) {
			case 0: // corrupt plan: column 0 loses a task
				for i := range plan.X {
					if plan.X[i][0] > 0 {
						plan.X[i][0]--
						break
					}
				}
			case 1:
				records = append(records, []byte{persistVersion, 0x80})
				continue
			}
			records = append(records, encode(in, p, plan))
		}
		got, want := New(Config{Capacity: capacity}), New(Config{Capacity: capacity})
		for n := rng.Intn(capacity + 1); n > 0; n-- {
			in, p, plan := pick()
			if errGot, errWant := got.Put(in, p, plan), want.Put(in, p, plan); (errGot == nil) != (errWant == nil) {
				t.Fatalf("iter %d: prefill Put disagrees: %v vs %v", iter, errGot, errWant)
			}
		}
		got.Load(records)
		replayInOrder(want, records)
		g, w := got.Snapshot(), want.Snapshot()
		if len(g) != len(w) {
			t.Fatalf("iter %d (capacity %d, %d records): Load kept %d entries, in-order replay %d", iter, capacity, len(records), len(g), len(w))
		}
		for i := range w {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("iter %d (capacity %d, %d records): LRU position %d differs:\n got %x\nwant %x", iter, capacity, len(records), i, g[i], w[i])
			}
		}
	}
}

// TestLoadRejectsStaleConfig re-verifies under the *current* config: a
// record journaled under a lax load cap is dropped when reloaded into
// a cache whose cap the plan violates.
func TestLoadRejectsStaleConfig(t *testing.T) {
	in := lrp.MustInstance([]int{8, 1}, []float64{1, 1})
	plan := lrp.NewPlan(in) // identity: max load 8
	j := &memJournal{}
	c := New(Config{Journal: j})
	if err := c.Put(in, Params{K: -1}, plan); err != nil {
		t.Fatal(err)
	}
	strict := New(Config{Verify: verify.Options{MaxLoad: 4}})
	kept, rejected := strict.Load(j.records)
	if kept != 0 || rejected != 1 {
		t.Fatalf("Load under strict cap = (%d, %d), want (0, 1)", kept, rejected)
	}
}

// TestJournalFailureDoesNotFailPut: durability is best-effort; a down
// journal costs a counter, not the entry.
func TestJournalFailureDoesNotFailPut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	j := &memJournal{failNext: true}
	reg := obs.NewRegistry()
	c := New(Config{Journal: j, Obs: reg})
	in := randInstance(rng, 5)
	if err := c.Put(in, Params{K: -1}, randPlan(rng, in, 4)); err != nil {
		t.Fatalf("Put failed on journal error: %v", err)
	}
	if _, ok := c.Get(in, Params{K: -1}); !ok {
		t.Fatal("entry missing after journal failure")
	}
	if v := reg.Counter("plancache.journal_errors").Value(); v != 1 {
		t.Fatalf("journal_errors = %d, want 1", v)
	}
	if len(j.records) != 0 {
		t.Fatalf("failed journal recorded %d records", len(j.records))
	}
}

// TestSnapshotCompaction: when the journal reports compaction due, the
// cache rewrites it as its live entries (LRU first), dropping
// superseded puts — and the snapshot reloads to an equivalent cache.
func TestSnapshotCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	j := &memJournal{}
	c := New(Config{Journal: j, Capacity: 4})
	ins, ps := putN(t, c, rng, 6) // 2 evicted by capacity
	j.compactDue = true
	in := randInstance(rng, 5)
	if err := c.Put(in, Params{K: -1}, randPlan(rng, in, 4)); err != nil {
		t.Fatal(err)
	}
	if j.compacted == nil {
		t.Fatal("compaction did not run")
	}
	if len(j.records) != 4 {
		t.Fatalf("snapshot holds %d records, want 4 (capacity)", len(j.records))
	}
	if st := c.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", st.Snapshots)
	}
	c2 := New(Config{Capacity: 4})
	if kept, rejected := c2.Load(j.records); kept != 4 || rejected != 0 {
		t.Fatalf("snapshot Load = (%d, %d), want (4, 0)", kept, rejected)
	}
	// The newest put and the most recent survivors hit; order-sensitive
	// LRU state matches: evicting one more keeps the same survivors.
	if _, ok := c2.Get(in, Params{K: -1}); !ok {
		t.Fatal("newest entry missing from snapshot")
	}
	for i := 4; i < 6; i++ {
		if _, ok := c2.Get(ins[i], ps[i]); !ok {
			t.Fatalf("recent entry %d missing from snapshot", i)
		}
	}
}

// TestWALCompactionEndToEnd drives the real *wal.Log Compactor path: a
// tiny compaction threshold forces generation turnover, and reopening
// the compacted log replays exactly the cache's live entries.
func TestWALCompactionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clk := solve.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	open := func() (*wal.Log, [][]byte) {
		log, recs, err := wal.Open(wal.Options{
			Dir: dir, Name: "plancache", Policy: wal.SyncNone,
			CompactBytes: 512, CompactEvery: time.Millisecond, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return log, recs
	}
	log, _ := open()
	rng := rand.New(rand.NewSource(23))
	c := New(Config{Journal: log, Capacity: 8})
	for i := 0; i < 40; i++ {
		in := randInstance(rng, 4+rng.Intn(4))
		if err := c.Put(in, Params{K: -1}, randPlan(rng, in, 5)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	if st := log.Stats(); st.Compactions == 0 {
		t.Fatal("WAL never compacted despite tiny threshold")
	}
	if st := c.Stats(); st.Snapshots == 0 {
		t.Fatal("cache counted no snapshots")
	}
	want := c.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs := open()
	defer log2.Close()
	// The replayed journal is the snapshot plus whatever was appended
	// after the last compaction — its tail must reload cleanly and
	// cover the live cache.
	if len(recs) > 8+int(c.Stats().Puts) {
		t.Fatalf("journal did not shrink: %d records", len(recs))
	}
	c2 := New(Config{Capacity: 8})
	kept, rejected := c2.Load(recs)
	if rejected != 0 {
		t.Fatalf("compacted journal had %d rejects (kept %d)", rejected, kept)
	}
	got := c2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("reloaded cache has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d differs after reload:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestNilCacheAndNilJournal: nil receivers and absent journals no-op.
func TestNilCacheAndNilJournal(t *testing.T) {
	var c *Cache
	if kept, rejected := c.Load([][]byte{[]byte("x")}); kept != 0 || rejected != 1 {
		t.Fatalf("nil cache Load = (%d, %d)", kept, rejected)
	}
	if c.Snapshot() != nil {
		t.Fatal("nil cache Snapshot != nil")
	}
	rng := rand.New(rand.NewSource(1))
	c2 := New(Config{}) // no journal
	in := randInstance(rng, 4)
	if err := c2.Put(in, Params{K: -1}, randPlan(rng, in, 3)); err != nil {
		t.Fatal(err)
	}
	if got := c2.Snapshot(); len(got) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(got))
	}
}
