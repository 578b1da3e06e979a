// Package faults is a seeded, deterministic fault injector for the
// simulated cloud solver path. The paper's workflow submits every
// rebalancing CQM to a cloud hybrid solver from inside an HPC job — a
// network hop that in practice fails, throttles, and times out. The
// injector reproduces those availability gaps on demand so the
// resilience layer (internal/resilient) can be exercised and measured
// deterministically: the full fault schedule is a pure function of the
// configuration's seed, so identical seeds yield identical schedules,
// retry counts, and final plans.
//
// Fault taxonomy:
//
//   - Transient — the submission fails with a retryable network error
//     before the solver runs (connection reset, DNS, 5xx).
//   - Timeout — the solve is accepted but never returns within its
//     deadline; the attempt consumes Config.TimeoutDelay of (injected)
//     clock time before the error surfaces.
//   - Throttle — the service rejects the request up front with a quota
//     error (HTTP 429-class).
//   - Corrupt — the solve "succeeds" but the returned sample was
//     damaged in flight: bits are flipped so the reported objective and
//     feasibility no longer match the sample. Detected by response
//     validation, not by an error.
//   - Panic — the solver goroutine panics mid-solve (crashing worker,
//     poisoned reply tripping a client bug). Contained by the panic
//     isolation layer (solve.Protected), not by retries.
//
// Disk fault taxonomy (the write-ahead log's file layer, internal/wal):
//
//   - ShortWrite — a write persists only a prefix of its bytes before
//     the error surfaces, the torn-tail case a crash mid-append leaves
//     behind. Recovery must truncate, never trust the tail.
//   - SyncErr — fsync fails; the durability guarantee of everything
//     buffered since the last successful sync is void.
//   - ReadCorrupt — a read returns bit-flipped data (latent sector
//     error, bad cable). Detected by frame CRCs, not by an error.
//   - CrashPoint — the simulated machine dies: every subsequent file
//     operation fails with ErrCrashed until the injector is Reset
//     (modelling a restart). Tests also trigger it directly with
//     Injector.Crash to cut power at an exact point.
//
// The injection surface is the Hook interface, consulted once per solve
// attempt by the simulated cloud backend (hybrid.Options.Faults), and
// once per file operation by the WAL's fault-wrapping FS.
package faults

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// None is a clean attempt.
	None Kind = iota
	// Transient is a retryable network failure before the solve runs.
	Transient
	// Timeout is a per-job solve deadline expiry.
	Timeout
	// Throttle is a quota/rate-limit rejection.
	Throttle
	// Corrupt damages the returned sample instead of erroring.
	Corrupt
	// Panic makes the solver goroutine panic mid-solve, modelling a
	// crashing worker or a poisoned reply that trips a bug in the
	// client. Only the isolation layer (solve.Protected) stands between
	// it and the process.
	Panic
	// ShortWrite persists only a prefix of a file write before erroring
	// — the torn tail a crash mid-append leaves on disk.
	ShortWrite
	// SyncErr fails an fsync, voiding the durability of everything
	// buffered since the last successful sync.
	SyncErr
	// ReadCorrupt flips bits in a file read instead of erroring; only a
	// checksum stands between it and the caller.
	ReadCorrupt
	// CrashPoint kills the simulated machine: the faulted operation and
	// every one after it fail with ErrCrashed until Injector.Reset
	// models the restart.
	CrashPoint
)

const numKinds = int(CrashPoint) + 1

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Timeout:
		return "timeout"
	case Throttle:
		return "throttle"
	case Corrupt:
		return "corrupt"
	case Panic:
		return "panic"
	case ShortWrite:
		return "short-write"
	case SyncErr:
		return "sync-err"
	case ReadCorrupt:
		return "read-corrupt"
	case CrashPoint:
		return "crash-point"
	}
	return "unknown"
}

// Sentinel errors the transport-level faults surface as. They are
// wrapped with %w at the injection site, so callers classify them with
// errors.Is.
var (
	// ErrTransient is a retryable network failure.
	ErrTransient = errors.New("faults: transient network error")
	// ErrTimeout is a per-job cloud solve deadline expiry.
	ErrTimeout = errors.New("faults: cloud solve timed out")
	// ErrThrottled is a quota/rate-limit rejection.
	ErrThrottled = errors.New("faults: request throttled (quota exceeded)")
	// ErrShortWrite is the error a torn write surfaces after persisting
	// only a prefix of its bytes.
	ErrShortWrite = errors.New("faults: short write (torn tail)")
	// ErrSync is a failed fsync.
	ErrSync = errors.New("faults: fsync failed")
	// ErrCrashed marks every file operation after a CrashPoint: the
	// simulated machine is down until the injector is Reset.
	ErrCrashed = errors.New("faults: simulated crash (machine down)")
)

// Err returns the sentinel error a fault of this kind surfaces as. None,
// Corrupt and ReadCorrupt return nil: a corrupted response (or read) is
// returned, not errored (that is what makes it dangerous).
func (k Kind) Err() error {
	switch k {
	case Transient:
		return ErrTransient
	case Timeout:
		return ErrTimeout
	case Throttle:
		return ErrThrottled
	case ShortWrite:
		return ErrShortWrite
	case SyncErr:
		return ErrSync
	case CrashPoint:
		return ErrCrashed
	}
	return nil
}

// Retryable reports whether err is (or wraps) one of the injectable
// transport faults — the class a resilient client may safely resubmit.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrThrottled)
}

// Config shapes the fault distribution. Each attempt draws one uniform
// variate; the rates carve it up, so they are mutually exclusive per
// attempt and must sum to at most 1.
type Config struct {
	// Seed drives the schedule; the whole schedule is a pure function
	// of (Config, attempt index).
	Seed int64
	// Transient, Timeout, Throttle, Corrupt, Panic are per-attempt
	// injection probabilities of each kind.
	Transient, Timeout, Throttle, Corrupt, Panic float64
	// ShortWrite, SyncErr, ReadCorrupt, CrashPoint are per-operation
	// injection probabilities of the disk fault kinds (the WAL's file
	// layer consults the hook once per read/write/sync). A drawn
	// CrashPoint is sticky: the injector stays crashed until Reset.
	ShortWrite, SyncErr, ReadCorrupt, CrashPoint float64
	// TimeoutDelay is the simulated time a Timeout fault consumes
	// before surfacing (measured on the injected solve.Clock).
	TimeoutDelay time.Duration
	// MaxFaults caps the total number of injected faults (0 = no cap);
	// useful for demos that should eventually converge.
	MaxFaults int
}

// Uniform splits a total fault rate over the four kinds in fixed
// proportions: 40% transient, 20% timeout, 20% throttle, 20% corrupt.
func Uniform(seed int64, rate float64) Config {
	return Config{
		Seed:      seed,
		Transient: 0.4 * rate,
		Timeout:   0.2 * rate,
		Throttle:  0.2 * rate,
		Corrupt:   0.2 * rate,
	}
}

// Rate returns the total per-attempt fault probability.
func (c Config) Rate() float64 {
	return c.Transient + c.Timeout + c.Throttle + c.Corrupt + c.Panic +
		c.ShortWrite + c.SyncErr + c.ReadCorrupt + c.CrashPoint
}

// Disk returns a configuration injecting only the disk fault kinds, the
// adversary the WAL's recovery path is property-tested under: torn
// writes, failed fsyncs and silently corrupted reads in a 2:1:2 split
// of rate. CrashPoint is left to the explicit Injector.Crash switch so
// tests cut power at exact points instead of at random ones.
func Disk(seed int64, rate float64) Config {
	return Config{
		Seed:        seed,
		ShortWrite:  0.4 * rate,
		SyncErr:     0.2 * rate,
		ReadCorrupt: 0.4 * rate,
	}
}

// Chaos returns a configuration injecting only the two faults no
// transport-level retry can paper over — corrupted replies and solver
// panics — splitting rate evenly between them. It is the adversary the
// trust-but-verify layer (verify + route + solve.Protected) is built
// for: Uniform's transient/timeout/throttle faults exercise retries,
// Chaos exercises verification and isolation.
func Chaos(seed int64, rate float64) Config {
	return Config{
		Seed:    seed,
		Corrupt: 0.5 * rate,
		Panic:   0.5 * rate,
	}
}

// mix derives a well-spread 64-bit stream seed from (seed, seq),
// splitmix64-style, so consecutive attempts get decorrelated draws.
func mix(seed, seq int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(seq)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // keep it non-negative for rand.NewSource
}

// at returns the fault decision of attempt seq — a pure function of the
// configuration, the source of the injector's reproducibility.
func (c Config) at(seq int) Fault {
	rng := rand.New(rand.NewSource(mix(c.Seed, int64(seq))))
	u := rng.Float64()
	f := Fault{Seq: seq, rngSeed: rng.Int63()}
	// The rates carve the unit interval in declaration order, so each
	// attempt draws at most one kind.
	cum := 0.0
	for _, step := range [...]struct {
		rate float64
		kind Kind
	}{
		{c.Transient, Transient},
		{c.Timeout, Timeout},
		{c.Throttle, Throttle},
		{c.Corrupt, Corrupt},
		{c.Panic, Panic},
		{c.ShortWrite, ShortWrite},
		{c.SyncErr, SyncErr},
		{c.ReadCorrupt, ReadCorrupt},
		{c.CrashPoint, CrashPoint},
	} {
		cum += step.rate
		if u < cum {
			f.Kind = step.kind
			if step.kind == Timeout {
				f.Delay = c.TimeoutDelay
			}
			break
		}
	}
	return f
}

// Schedule returns the fault kinds of attempts 0..n-1 — exactly what a
// fresh Injector with this config will produce (ignoring MaxFaults).
// Tests and reports use it to assert and display the schedule.
func (c Config) Schedule(n int) []Kind {
	out := make([]Kind, n)
	for i := range out {
		out[i] = c.at(i).Kind
	}
	return out
}

// Fault is one attempt's injection decision.
type Fault struct {
	// Kind is the fault class (None for a clean attempt).
	Kind Kind
	// Seq is the 0-based attempt index the decision belongs to.
	Seq int
	// Delay is the simulated time the fault consumes before surfacing
	// (Timeout faults; zero otherwise).
	Delay time.Duration

	rngSeed int64
}

// CorruptSample deterministically flips a small subset of sample's bits
// in place (between 1 and len/8 of them), modelling a response damaged
// in flight. It is a no-op unless Kind is Corrupt.
func (f Fault) CorruptSample(sample []bool) {
	if f.Kind != Corrupt || len(sample) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(f.rngSeed))
	n := 1 + rng.Intn(max(1, len(sample)/8))
	for i := 0; i < n; i++ {
		j := rng.Intn(len(sample))
		sample[j] = !sample[j]
	}
}

// CorruptBytes deterministically flips between 1 and 8 bits of p in
// place, modelling a read damaged by a latent sector error. It is a
// no-op unless Kind is ReadCorrupt.
func (f Fault) CorruptBytes(p []byte) {
	if f.Kind != ReadCorrupt || len(p) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(f.rngSeed))
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		j := rng.Intn(len(p))
		p[j] ^= 1 << uint(rng.Intn(8))
	}
}

// ShortLen returns how many of n bytes a torn write persists: a
// deterministic strict prefix (0 <= len < n, for n > 0). It returns n
// unchanged unless Kind is ShortWrite.
func (f Fault) ShortLen(n int) int {
	if f.Kind != ShortWrite || n <= 0 {
		return n
	}
	rng := rand.New(rand.NewSource(f.rngSeed))
	return rng.Intn(n)
}

// Hook is the injection surface a simulated cloud component consults
// once per solve attempt. *Injector implements it; a nil Hook means a
// perfectly reliable cloud.
type Hook interface {
	// Next consumes and returns the next attempt's fault decision.
	Next() Fault
}

// Injector hands out the configured schedule attempt by attempt. It is
// safe for concurrent use; under concurrent submitters the assignment
// of schedule slots to attempts follows arrival order.
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	seq     int
	crashed bool
	counts  [numKinds]int
}

// NewInjector returns an injector at the start of cfg's schedule.
func NewInjector(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Next implements Hook.
func (i *Injector) Next() Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		// CrashPoint is sticky: the machine is down, every operation
		// fails until Reset models the restart.
		f := Fault{Kind: CrashPoint, Seq: i.seq}
		i.seq++
		i.counts[CrashPoint]++
		return f
	}
	f := i.cfg.at(i.seq)
	i.seq++
	if f.Kind != None && i.cfg.MaxFaults > 0 && i.injectedLocked() >= i.cfg.MaxFaults {
		f = Fault{Seq: f.Seq} // cap reached: serve clean attempts from here on
	}
	if f.Kind == CrashPoint {
		i.crashed = true
	}
	i.counts[f.Kind]++
	return f
}

// Crash flips the injector into the crashed state at an exact point:
// the next and every following operation fails with ErrCrashed until
// Reset. Tests use it to cut power deterministically mid-sequence.
func (i *Injector) Crash() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed = true
}

// Reset models the machine restarting: the crashed state clears and the
// schedule continues from the current attempt index.
func (i *Injector) Reset() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed = false
}

// Crashed reports whether the injector is in the post-CrashPoint state.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

func (i *Injector) injectedLocked() int {
	n := 0
	for k := 1; k < numKinds; k++ {
		n += i.counts[k]
	}
	return n
}

// Injected returns the total number of faults injected so far.
func (i *Injector) Injected() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injectedLocked()
}

// Attempts returns how many attempts the injector has decided.
func (i *Injector) Attempts() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.seq
}

// Counts returns the per-kind injection counts so far (indexable by
// Kind; Counts()[None] counts clean attempts).
func (i *Injector) Counts() [numKinds]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts
}
