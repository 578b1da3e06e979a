// Package plancache is a bounded LRU of verified migration plans keyed
// by a canonical instance fingerprint, so repeated or permuted-repeat
// rebalance rounds skip the solver entirely.
//
// The cache never takes its own word for anything. Put refuses a plan
// that does not pass verify.Plan against the instance it is being
// stored for, and every Get re-runs verify.Plan on the reconstructed
// plan before it is served — a corrupt, stale, or fingerprint-colliding
// entry is evicted and counted (plancache.rejects), never returned.
// That makes the fingerprint purely an index: a false positive costs
// one wasted verification, not a wrong plan.
//
// Plans are stored in canonical process order (see fingerprint.go) and
// mapped back through the requesting instance's own permutation, so a
// round whose processes are a permutation of a cached round still hits.
// For the identical instance the mapping round-trips byte-identically.
//
// The hit path is allocation-free once warm when served through
// GetInto: the fingerprint scratch, the permutation buffers and the
// verification Report are cache-owned and reused under the mutex, and
// verify.PlanInto pools its load vector.
//
// Exported metrics (nil-safe via a nil obs.Registry):
//
//	plancache.hits / plancache.misses / plancache.rejects  (counters)
//	plancache.puts / plancache.put_rejects                 (counters)
//	plancache.evictions                                    (counter)
//	plancache.loads / plancache.load_rejects               (counters)
//	plancache.journal_errors / plancache.snapshots         (counters)
//	plancache.entries / plancache.bytes                    (gauges)
//	plancache.entry_bytes                                  (histogram)
package plancache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/verify"
)

// DefaultCapacity bounds the cache when Config.Capacity is zero.
const DefaultCapacity = 256

// DefaultEpsilon is the weight quantization step when Config.Epsilon is
// zero: tight enough to be "exact match up to float noise", so the
// default cache never trades plan quality for hit rate. Raise it to
// make near-identical rounds (load drift below ε) hit too.
const DefaultEpsilon = 1e-9

// Params identify the solve configuration a cached plan answers. Two
// requests only share an entry when their Params match exactly.
type Params struct {
	// K is the migration budget exactly as verify.Plan receives it
	// (negative disables the cap). It is part of the fingerprint: a plan
	// verified under budget 8 must not answer a budget-4 request.
	K int
	// Form discriminates constraint shapes that are invisible to the
	// instance itself (e.g. the CQM formulation a caller insists on).
	// Callers that don't care pass zero.
	Form int
}

// Config tunes a Cache.
type Config struct {
	// Capacity is the maximum number of entries (DefaultCapacity when
	// zero or negative); the least-recently-used entry is evicted first.
	Capacity int
	// Epsilon is the weight quantization step for the fingerprint
	// (DefaultEpsilon when zero or negative).
	Epsilon float64
	// Verify is the options block for the mandatory verify-on-hit and
	// verify-on-put gates. Its MaxLoad knob participates in the
	// fingerprint: entries cached under one load cap never answer
	// requests under another.
	Verify verify.Options
	// Journal, when non-nil, receives one encoded record per accepted
	// Put (see persist.go). A *wal.Log satisfies it; when the value also
	// implements Compactor, the cache snapshots itself into a fresh
	// generation whenever the journal says compaction is due. Journal
	// failures are counted (plancache.journal_errors), never surfaced:
	// the cache stays correct without durability.
	Journal Journal
	// Obs receives plancache.* metrics (nil is fine).
	Obs *obs.Registry
}

// Stats is a point-in-time snapshot of the cache counters, for tests
// and artifacts that don't want to go through an obs.Registry.
type Stats struct {
	Hits        int64 // served plans (verified on the way out)
	Misses      int64 // fingerprint not present
	Rejects     int64 // present but failed verify-on-hit; evicted, not served
	Puts        int64 // accepted stores
	PutRejects  int64 // stores refused by verify-on-put
	Evictions   int64 // entries dropped (capacity + verify rejects)
	Loads       int64 // records re-admitted from the journal
	LoadRejects int64 // journal records dropped (corrupt, stale, unverifiable)
	JournalErrs int64 // journal appends/compactions that failed
	Snapshots   int64 // journal compactions performed
	Entries     int   // current entry count
	Bytes       int64 // current stored plan bytes
}

// entry is one cached plan, held in canonical process order. The
// canonical instance rides along so the entry can be re-encoded for the
// journal snapshot without keeping the requester's instance alive.
type entry struct {
	fp      fingerprint
	m       int
	p       Params
	ctasks  []int     // canonical task counts (cache-owned)
	cweight []float64 // canonical per-task weights (cache-owned)
	plan    *lrp.Plan // cache-owned canonical copy; never aliased out
	bytes   int64
}

// Cache is a bounded, verified, permutation-aware plan LRU. Safe for
// concurrent use. A nil *Cache no-ops: Get misses, Put drops.
type Cache struct {
	cfg Config

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *entry
	idx   map[fingerprint]*list.Element
	sc    scratch
	rep   verify.Report // reusable verify-on-hit/on-put report
	bytes int64
	stats Stats

	cHit, cMiss, cReject, cPut, cPutReject, cEvict *obs.Counter
	cLoad, cLoadReject, cJournalErr, cSnapshot     *obs.Counter
	gEntries, gBytes                               *obs.Gauge
	hEntryBytes                                    *obs.Histogram
}

// New builds a Cache. Metric handles are resolved once here so the hot
// path never touches the registry maps.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	r := cfg.Obs
	return &Cache{
		cfg:         cfg,
		ll:          list.New(),
		idx:         make(map[fingerprint]*list.Element),
		cHit:        r.Counter("plancache.hits"),
		cMiss:       r.Counter("plancache.misses"),
		cReject:     r.Counter("plancache.rejects"),
		cPut:        r.Counter("plancache.puts"),
		cPutReject:  r.Counter("plancache.put_rejects"),
		cEvict:      r.Counter("plancache.evictions"),
		cLoad:       r.Counter("plancache.loads"),
		cLoadReject: r.Counter("plancache.load_rejects"),
		cJournalErr: r.Counter("plancache.journal_errors"),
		cSnapshot:   r.Counter("plancache.snapshots"),
		gEntries:    r.Gauge("plancache.entries"),
		gBytes:      r.Gauge("plancache.bytes"),
		hEntryBytes: r.Histogram("plancache.entry_bytes"),
	}
}

// Epsilon reports the quantization step in effect.
func (c *Cache) Epsilon() float64 {
	if c == nil {
		return DefaultEpsilon
	}
	return c.cfg.Epsilon
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// cacheable screens instances the fingerprint cannot canonicalize.
func cacheable(in *lrp.Instance) bool {
	return in != nil && len(in.Tasks) > 0 && len(in.Tasks) == len(in.Weight)
}

// Get returns a freshly allocated plan for the instance if a verified
// entry exists, or (nil, false). The returned plan is the caller's to
// mutate. Allocation-sensitive callers use GetInto.
func (c *Cache) Get(in *lrp.Instance, p Params) (*lrp.Plan, bool) {
	if c == nil || !cacheable(in) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lookupLocked(in, p)
	if el == nil {
		return nil, false
	}
	dst := lrp.ZeroPlan(len(in.Tasks))
	if !c.serveLocked(el, dst, in, p) {
		return nil, false
	}
	return dst, true
}

// GetInto is Get writing into a caller-owned plan (reshaped in place as
// needed): the zero-allocation hit path. dst's previous contents are
// overwritten on a hit and untouched on a miss.
func (c *Cache) GetInto(dst *lrp.Plan, in *lrp.Instance, p Params) bool {
	if c == nil || dst == nil || !cacheable(in) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lookupLocked(in, p)
	if el == nil {
		return false
	}
	return c.serveLocked(el, dst, in, p)
}

// lookupLocked fingerprints the instance (filling c.sc.perm/inv) and
// returns the matching element, counting the miss if there is none.
func (c *Cache) lookupLocked(in *lrp.Instance, p Params) *list.Element {
	el := c.idx[c.fingerprintLocked(in, p)]
	if el == nil {
		c.stats.Misses++
		c.cMiss.Inc()
		return nil
	}
	return el
}

// serveLocked reconstructs el's canonical plan in the requesting
// instance's process order, re-verifies it, and either serves it (LRU
// front, hit counted) or evicts it (reject counted, never served).
// c.sc.perm must hold the requester's permutation from lookupLocked.
func (c *Cache) serveLocked(el *list.Element, dst *lrp.Plan, in *lrp.Instance, p Params) bool {
	ent := el.Value.(*entry)
	m := len(in.Tasks)
	if ent.m != m {
		// Fingerprint collision across sizes; the entry cannot answer.
		c.evictLocked(el)
		c.stats.Rejects++
		c.cReject.Inc()
		return false
	}
	reshape(dst, m)
	perm := c.sc.perm
	for a := 0; a < m; a++ {
		row, src := dst.X[perm[a]], ent.plan.X[a]
		for b := 0; b < m; b++ {
			row[perm[b]] = src[b]
		}
	}
	verify.PlanInto(&c.rep, in, dst, p.K, c.cfg.Verify)
	if !c.rep.Ok() {
		// Corrupt, stale, or colliding entry: drop it and report a miss.
		c.evictLocked(el)
		c.stats.Rejects++
		c.cReject.Inc()
		return false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	c.cHit.Inc()
	return true
}

// Put stores a plan for the instance after verifying it. A plan that
// fails verification is refused with the verifier's error (wrapping
// verify.ErrRejected) and counted as a put_reject. The plan is deep-
// copied into canonical order, so the caller keeps ownership of its
// argument.
func (c *Cache) Put(in *lrp.Instance, p Params, plan *lrp.Plan) error {
	if c == nil {
		return nil
	}
	if !cacheable(in) || plan == nil {
		return fmt.Errorf("plancache: uncacheable instance or nil plan")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	verify.PlanInto(&c.rep, in, plan, p.K, c.cfg.Verify)
	if !c.rep.Ok() {
		c.stats.PutRejects++
		c.cPutReject.Inc()
		return fmt.Errorf("plancache: refusing unverified plan: %w", c.rep.Err())
	}
	ent := c.canonLocked(c.fingerprintLocked(in, p), in, p, plan)
	c.insertLocked(ent)
	c.journalLocked(ent)
	return nil
}

// fingerprintLocked keys (in, p) under the cache's config, leaving the
// requester's permutation in c.sc.perm/inv.
func (c *Cache) fingerprintLocked(in *lrp.Instance, p Params) fingerprint {
	return fingerprintInto(&c.sc, in.Tasks, in.Weight, c.cfg.Epsilon, p, c.cfg.Verify.MaxLoad)
}

// canonLocked copies in and plan into canonical process order as the
// entry keyed fp. c.sc.inv must hold in's permutation from
// fingerprintLocked.
func (c *Cache) canonLocked(fp fingerprint, in *lrp.Instance, p Params, plan *lrp.Plan) *entry {
	m := len(in.Tasks)
	cells := make([]int, m*m)
	ctasks := make([]int, m)
	cweight := make([]float64, m)
	inv := c.sc.inv
	for i := 0; i < m; i++ {
		src, row := plan.X[i], cells[inv[i]*m:]
		for j := 0; j < m; j++ {
			row[inv[j]] = src[j]
		}
		ctasks[inv[i]] = in.Tasks[i]
		cweight[inv[i]] = in.Weight[i]
	}
	return &entry{
		fp: fp, m: m, p: p, ctasks: ctasks, cweight: cweight,
		plan: &lrp.Plan{X: rows(cells, m)}, bytes: int64(m) * int64(m) * 8,
	}
}

// insertLocked makes ent the most recently used entry, replacing any
// entry with its fingerprint, and evicts down to capacity.
func (c *Cache) insertLocked(ent *entry) {
	if el := c.idx[ent.fp]; el != nil {
		// Replace in place (a fresher plan for the same key).
		old := el.Value.(*entry)
		c.bytes += ent.bytes - old.bytes
		el.Value = ent
		c.ll.MoveToFront(el)
	} else {
		c.idx[ent.fp] = c.ll.PushFront(ent)
		c.bytes += ent.bytes
	}
	for c.ll.Len() > c.cfg.Capacity {
		c.evictLocked(c.ll.Back())
	}
	c.stats.Puts++
	c.cPut.Inc()
	c.hEntryBytes.Observe(float64(ent.bytes))
	c.gEntries.Set(float64(c.ll.Len()))
	c.gBytes.Set(float64(c.bytes))
}

// evictLocked removes one element and updates eviction accounting.
func (c *Cache) evictLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.idx, ent.fp)
	c.bytes -= ent.bytes
	c.stats.Evictions++
	c.cEvict.Inc()
	c.gEntries.Set(float64(c.ll.Len()))
	c.gBytes.Set(float64(c.bytes))
}

// reshape sizes dst to m×m, reusing existing row capacity.
func reshape(dst *lrp.Plan, m int) {
	if cap(dst.X) < m {
		dst.X = make([][]int, m)
	} else {
		dst.X = dst.X[:m]
	}
	for i := range dst.X {
		if cap(dst.X[i]) < m {
			dst.X[i] = make([]int, m)
		} else {
			dst.X[i] = dst.X[i][:m]
		}
	}
}

// rows slices m×m row-major cells into plan rows.
func rows(cells []int, m int) [][]int {
	x := make([][]int, m)
	for i := range x {
		x[i] = cells[i*m : (i+1)*m : (i+1)*m]
	}
	return x
}
