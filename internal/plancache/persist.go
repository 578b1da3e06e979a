// Durability for the verified plan cache.
//
// The cache journals every accepted Put as one self-contained binary
// record — the Params, the *canonical* instance and the canonical plan
// — through a caller-supplied Journal (in production a *wal.Log). On
// startup the daemon replays the journal and hands the surviving
// records to Load, which pushes each record it needs through the same
// gate a live Put faces: decode, rebuild the instance, and re-run
// verify.Plan. A record that was corrupted on disk, or that was written
// under a config the current process no longer honours (different load
// cap, different budget), fails that gate, is counted as a load_reject
// and never enters the cache — the trust-but-verify invariant extends
// to bytes read back from disk.
//
// Load walks the journal newest-first and stops once it holds Capacity
// entries, so a restart costs O(live entries), not O(journaled Puts),
// and ends with exactly the contents and LRU order an in-order replay
// would have produced (see Load).
//
// Records are canonical on purpose: re-fingerprinting the canonical
// sequence is the identity permutation, and two daemons journaling
// permuted views of the same round converge on byte-identical records.
//
// Journal failures never fail a Put. The cache is an accelerator;
// losing durability degrades restart warmth, not correctness.
package plancache

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/binrec"
	"repro/internal/lrp"
	"repro/internal/verify"
)

// persistVersion is the record schema, carried in every record's first
// byte. Version 1 was JSON; its records (first byte '{') no longer
// decode and are dropped at Load like any other malformed record.
const persistVersion = 2

// errRecord marks a journal record that does not decode.
var errRecord = errors.New("plancache: malformed journal record")

// Journal receives one encoded record per accepted Put. *wal.Log
// satisfies it. Append must be safe for concurrent use and must not
// call back into the cache.
type Journal interface {
	Append(rec []byte) error
}

// Compactor is the optional snapshot-compaction side of a Journal.
// When the configured Journal implements it, the cache rewrites the
// journal as a snapshot of its live entries whenever CompactDue
// reports true after a journaled Put. *wal.Log satisfies it.
type Compactor interface {
	CompactDue() bool
	Compact(records [][]byte) error
}

// record is one journaled entry in canonical process order. Verify
// options are deliberately absent — a loaded record is re-verified
// under the *current* config, so entries written under a laxer load
// cap are dropped, not trusted.
//
// The v2 encoding (varints are encoding/binary's, a weight is its IEEE
// 754 bits as a little-endian uint64):
//
//	record = u8 version(2) | varint k | varint form | uvarint m
//	         | m × uvarint tasks | m × f64 weights
//	         | m×m × uvarint plan cells, column by column
//
// Each cell decodes as at most what is left of its column's task count,
// so no column sum can wrap, while every plan that conserves tasks
// fits.
type record struct {
	p      Params
	tasks  []int
	weight []float64
	plan   [][]int
}

// appendRecord appends rec's v2 encoding to b. The plan must be
// len(rec.tasks) square.
func appendRecord(b []byte, rec *record) []byte {
	m := len(rec.tasks)
	b = append(b, persistVersion)
	b = binary.AppendVarint(b, int64(rec.p.K))
	b = binary.AppendVarint(b, int64(rec.p.Form))
	b = binary.AppendUvarint(b, uint64(m))
	for _, n := range rec.tasks {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for _, w := range rec.weight {
		b = binrec.AppendFloat(b, w)
	}
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			b = binary.AppendUvarint(b, uint64(rec.plan[i][j]))
		}
	}
	return b
}

// decodeRecord parses one v2 record. The process count is checked
// against the bytes left before anything is allocated, and the record
// must be consumed exactly. Values are judged by the caller:
// lrp.NewInstance and verify.Plan.
func decodeRecord(b []byte) (record, error) {
	r := binrec.NewReader(b)
	if r.Byte() != persistVersion {
		return record{}, errRecord
	}
	var rec record
	rec.p.K = int(r.Varint())
	rec.p.Form = int(r.Varint())
	// m processes take at least m(m+9) bytes: a task count and a weight
	// each, and a column of m cells.
	m := r.Count(math.MaxInt, 9)
	if m == 0 || m > r.Len()/(m+9) {
		return record{}, errRecord
	}
	rec.tasks = make([]int, m)
	for j := range rec.tasks {
		rec.tasks[j] = r.Int()
	}
	rec.weight = make([]float64, m)
	for j := range rec.weight {
		rec.weight[j] = r.Float()
	}
	cells := make([]int, m*m)
	for j := 0; j < m; j++ {
		left := uint64(rec.tasks[j])
		for i := 0; i < m; i++ {
			c := r.Uvarint(left)
			cells[i*m+j] = int(c)
			left -= c
		}
	}
	if !r.Done() {
		return record{}, errRecord
	}
	rec.plan = rows(cells, m)
	return rec, nil
}

// encodeEntry serializes one cache entry as a journal record.
func encodeEntry(ent *entry) []byte {
	return appendRecord(make([]byte, 0, 24+ent.m*(10+ent.m)), &record{
		p: ent.p, tasks: ent.ctasks, weight: ent.cweight, plan: ent.plan.X,
	})
}

// journalLocked appends ent to the configured journal and, when the
// journal supports compaction and says it is due, rewrites it as a
// snapshot of the live entries. Failures are counted, never returned.
func (c *Cache) journalLocked(ent *entry) {
	j := c.cfg.Journal
	if j == nil {
		return
	}
	if err := j.Append(encodeEntry(ent)); err != nil {
		c.stats.JournalErrs++
		c.cJournalErr.Inc()
		return
	}
	comp, ok := j.(Compactor)
	if !ok || !comp.CompactDue() {
		return
	}
	if err := comp.Compact(c.snapshotLocked()); err != nil {
		c.stats.JournalErrs++
		c.cJournalErr.Inc()
		return
	}
	c.stats.Snapshots++
	c.cSnapshot.Inc()
}

// Snapshot encodes every live entry, least-recently-used first, so a
// replay of the snapshot reconstructs both the contents and the LRU
// order of the cache. Intended for journal compaction and tests.
func (c *Cache) Snapshot() [][]byte {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Cache) snapshotLocked() [][]byte {
	records := make([][]byte, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		records = append(records, encodeEntry(el.Value.(*entry)))
	}
	return records
}

// Load re-admits previously journaled records, oldest first in
// records. Every record it reads is decoded, rebuilt into an instance
// and re-verified under the current config; failures of any kind are
// dropped and counted (plancache.load_rejects), never served. Load
// does not re-journal what it admits. Returns (kept, rejected).
//
// The result equals replaying every record in order through the put
// gate: an LRU fed a sequence of puts ends holding the Capacity most
// recently put distinct fingerprints, each with its last put value,
// ahead of whatever it held before. So Load walks the records
// newest-first, skips a fingerprint it already admitted (a newer put
// replaced it), stops once it holds Capacity entries (every older
// record would be replaced or evicted), and inserts what it kept
// oldest-first. Records it skips or never reads count as neither kept
// nor rejected.
func (c *Cache) Load(records [][]byte) (kept, rejected int) {
	if c == nil {
		return 0, len(records)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ents []*entry
	seen := make(map[fingerprint]struct{})
	for i := len(records) - 1; i >= 0 && len(ents) < c.cfg.Capacity; i-- {
		ent, err := c.loadOneLocked(records[i], seen)
		switch {
		case err != nil:
			rejected++
		case ent != nil:
			ents = append(ents, ent)
		}
	}
	for i := len(ents) - 1; i >= 0; i-- {
		c.insertLocked(ents[i])
	}
	kept = len(ents)
	c.stats.Loads += int64(kept)
	c.cLoad.Add(int64(kept))
	c.stats.LoadRejects += int64(rejected)
	c.cLoadReject.Add(int64(rejected))
	return kept, rejected
}

// loadOneLocked decodes and re-verifies one journal record into a
// canonical entry, or returns (nil, nil) when seen already holds its
// fingerprint.
func (c *Cache) loadOneLocked(b []byte, seen map[fingerprint]struct{}) (*entry, error) {
	rec, err := decodeRecord(b)
	if err != nil {
		return nil, err
	}
	in, err := lrp.NewInstance(rec.tasks, rec.weight)
	if err != nil {
		return nil, err
	}
	fp := c.fingerprintLocked(in, rec.p)
	if _, ok := seen[fp]; ok {
		return nil, nil
	}
	plan := &lrp.Plan{X: rec.plan}
	verify.PlanInto(&c.rep, in, plan, rec.p.K, c.cfg.Verify)
	if !c.rep.Ok() {
		return nil, c.rep.Err()
	}
	seen[fp] = struct{}{}
	return c.canonLocked(fp, in, rec.p, plan), nil
}
