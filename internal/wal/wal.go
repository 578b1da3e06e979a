// Package wal is an append-only, CRC32C-framed write-ahead log: the
// durability layer under the serving tier's job journal, the plan
// cache's persistence hook, and the dlb driver's round journal. A crash
// loses at most the unsynced suffix of the log; it never yields a
// record that fails its checksum, and it never "fails open" past a
// damaged frame.
//
// On-disk format (all integers little-endian):
//
//	segment  = header frame*
//	header   = magic "QWAL" | uint32 version | uint64 generation
//	frame    = uint32 len | uint32 crc32c(len || payload) | payload
//
// Segments are named <Name>-<generation, 16 hex digits>.log, so several
// logs can share one directory without ever sharing a file. They are
// generation-stamped: the live segment is the log's highest generation
// in the directory, and compaction writes generation g+1 as a temp
// file, fsyncs it, renames it into place, fsyncs the directory, and
// only then removes generation g — so a crash at any point leaves
// either the old or the new generation fully intact. The log's own
// stale generations and orphaned temp files found at Open are removed;
// other logs' files are never touched.
//
// Torn-tail rule: replay accepts the longest clean prefix of frames and
// truncates at the first bad one (short header, short payload, absurd
// length, CRC mismatch, or a header whose generation does not match its
// file name). Anything after the first bad frame is discarded even if
// it looks intact — a mid-log flip means the disk lied, and a log that
// "resynchronizes" past damage can resurrect records the writer never
// acknowledged. Recovery rewrites the surviving prefix as a fresh
// generation so the on-disk state is clean again after Open.
//
// The file layer is pluggable (FS): production uses the real
// filesystem, tests wrap it with Faulty over a seeded
// faults.Injector — ShortWrite, SyncErr, ReadCorrupt and CrashPoint
// schedules make recovery property-testable deterministically, the same
// pattern the simulated cloud path uses for network faults.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/solve"
)

// Frame and segment geometry.
const (
	headerSize      = 16 // magic(4) version(4) generation(8)
	frameHeaderSize = 8  // len(4) crc(4)
	version         = 1

	// MaxRecord bounds one payload (64 MiB). Replay treats a larger
	// length field as a corrupt frame instead of allocating for it.
	MaxRecord = 1 << 26
)

var magic = [4]byte{'Q', 'W', 'A', 'L'}

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed marks operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrTooLarge marks an Append whose payload exceeds MaxRecord.
	ErrTooLarge = errors.New("wal: record exceeds MaxRecord")
	// ErrWedged marks appends after a failed write: the segment tail is
	// in an unknown state, so the log refuses to stack frames on top of
	// a possible torn one. Restarting (re-Open) repairs the tail and
	// clears the condition; already-acknowledged records are unaffected.
	ErrWedged = errors.New("wal: wedged after failed append (reopen to repair)")
	// ErrLegacySegment marks a directory that still holds a segment in
	// the retired shared layout, where every log in the directory
	// appended to one wal-<gen>.log and a compaction by one log deleted
	// the other's records. Open refuses such a directory instead of
	// starting empty beside it; moving the file aside is the upgrade.
	ErrLegacySegment = errors.New("wal: directory holds a retired shared wal-<gen>.log segment")
)

// SyncPolicy selects when Append data becomes durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a crash loses nothing that
	// was acknowledged. The safest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when Options.Interval has elapsed on the
	// injected clock since the last sync: a crash loses at most the
	// last interval's appends.
	SyncInterval
	// SyncNone never fsyncs on append (Close and Compact still do): the
	// OS decides durability. For tests and throwaway state.
	SyncNone
)

// ParseSyncPolicy maps the qulrbd -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// Name names the log's segment files (<Name>-<gen>.log) and tags
	// its obs metrics (wal.<name>.*), so several logs can share one
	// directory and one registry; default "log". It must be a plain file
	// name component, and "wal" is reserved for the retired shared
	// layout.
	Name string
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval flush period on the injected clock
	// (default 100ms).
	Interval time.Duration
	// CompactBytes is the live-segment size past which CompactDue
	// reports true (default 4 MiB).
	CompactBytes int64
	// CompactEvery rate-limits compactions on the injected clock:
	// CompactDue stays false until this much clock time has passed
	// since the last compaction (0 = no time gate).
	CompactEvery time.Duration
	// FS is the file layer (default the real filesystem). Tests inject
	// Faulty(OS(), injector).
	FS FS
	// Clock is the time source for sync batching and compaction pacing
	// (default solve.Real()).
	Clock solve.Clock
	// Obs receives wal.<name>.* counters and gauges (nil is fine).
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: Options.Dir is required")
	}
	if o.Name == "" {
		o.Name = "log"
	}
	if o.Name == legacyName || filepath.Base(o.Name) != o.Name {
		return o, fmt.Errorf("wal: Options.Name %q is not a usable segment name", o.Name)
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = OS()
	}
	if o.Clock == nil {
		o.Clock = solve.Real()
	}
	return o, nil
}

// Stats is a point-in-time snapshot of one log's accounting.
type Stats struct {
	Generation  uint64 // live segment generation
	SegmentSize int64  // live segment bytes (header included)
	Appends     int64  // accepted appends since Open
	Replayed    int    // records recovered by Open
	Truncated   bool   // Open found and cut a bad frame / torn tail
	Compactions int64  // compactions since Open
}

// Log is a single-writer append log. All methods are safe for
// concurrent use; appends are serialized internally.
type Log struct {
	opt Options

	mu          sync.Mutex
	f           File
	gen         uint64
	size        int64
	lastSync    time.Time
	lastCompact time.Time
	wedged      error // non-nil after a failed append write
	closed      bool
	buf         []byte // frame scratch, reused across appends
	stats       Stats

	cAppend, cAppendErr, cSync, cSyncErr  *obs.Counter
	cReplayed, cCorrupt, cTrunc, cCompact *obs.Counter
	gGen, gBytes                          *obs.Gauge
}

// Open replays the log directory and returns the live log plus every
// recovered record, in append order. A missing directory is created
// (empty log); a damaged tail or mid-log frame is truncated per the
// torn-tail rule, and the surviving prefix is rewritten as a fresh
// generation so the segment on disk is clean. The returned payload
// slices are the caller's to keep.
func Open(opt Options) (*Log, [][]byte, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	pre := "wal." + opt.Name + "."
	r := opt.Obs
	l := &Log{
		opt:        opt,
		cAppend:    r.Counter(pre + "appends"),
		cAppendErr: r.Counter(pre + "append_errors"),
		cSync:      r.Counter(pre + "syncs"),
		cSyncErr:   r.Counter(pre + "sync_errors"),
		cReplayed:  r.Counter(pre + "replayed"),
		cCorrupt:   r.Counter(pre + "corrupt_frames"),
		cTrunc:     r.Counter(pre + "truncations"),
		cCompact:   r.Counter(pre + "compactions"),
		gGen:       r.Gauge(pre + "generation"),
		gBytes:     r.Gauge(pre + "segment_bytes"),
	}
	if err := opt.FS.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	names, err := opt.FS.ReadDir(opt.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list dir: %w", err)
	}
	// A segment of the shared layout may hold this log's records; never
	// start empty beside it. Checked before anything is removed or
	// created, so a refused Open leaves the directory as it found it.
	for _, n := range names {
		if _, ok := segmentGen(legacyName, n); ok {
			return nil, nil, fmt.Errorf("%w: %s (move it aside to start the %q log empty)",
				ErrLegacySegment, filepath.Join(opt.Dir, n), opt.Name)
		}
	}
	live, stale := pickSegments(opt.Name, names)
	// Compaction leftovers and superseded generations are garbage by
	// construction (the rename committed, or never happened); removing
	// them is best-effort.
	for _, n := range stale {
		_ = opt.FS.Remove(filepath.Join(opt.Dir, n))
	}

	now := opt.Clock.Now()
	l.lastSync, l.lastCompact = now, now
	if live == "" {
		if err := l.startSegment(1, nil); err != nil {
			return nil, nil, err
		}
		return l, nil, nil
	}

	gen, ok := segmentGen(opt.Name, live)
	if !ok { // unreachable: pickSegments only returns parseable names
		return nil, nil, fmt.Errorf("wal: bad segment name %q", live)
	}
	data, err := readAll(opt.FS, filepath.Join(opt.Dir, live))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read segment: %w", err)
	}
	records, clean := Replay(data, gen)
	l.stats.Replayed = len(records)
	l.cReplayed.Add(int64(len(records)))
	if clean {
		// Intact segment: keep appending to it.
		l.gen = gen
		l.size = int64(len(data))
		f, err := opt.FS.OpenFile(filepath.Join(opt.Dir, live), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.f = f
		l.gGen.Set(float64(l.gen))
		l.gBytes.Set(float64(l.size))
		return l, records, nil
	}
	// Torn tail or mid-log damage: never fail open, never append on top
	// of a bad frame. Rewrite the clean prefix as the next generation.
	l.stats.Truncated = true
	l.cCorrupt.Inc()
	l.cTrunc.Inc()
	if err := l.startSegment(gen+1, records); err != nil {
		return nil, nil, fmt.Errorf("wal: recovery rewrite: %w", err)
	}
	return l, records, nil
}

// Segment files are named <log>-<generation, 16 hex digits>.log. The
// generation has a fixed width, so no log's segment name parses as
// another log's. legacyName is the prefix every log used before each
// got its own namespace.
const (
	segSuffix  = ".log"
	tmpSuffix  = ".tmp"
	legacyName = "wal"
)

func segmentName(log string, gen uint64) string {
	return fmt.Sprintf("%s-%016x%s", log, gen, segSuffix)
}

// segmentGen parses a file name back into the generation of one of the
// named log's segments.
func segmentGen(log, file string) (uint64, bool) {
	hex, ok := strings.CutPrefix(file, log+"-")
	if !ok {
		return 0, false
	}
	if hex, ok = strings.CutSuffix(hex, segSuffix); !ok || len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// pickSegments splits a directory listing into the named log's live
// segment (its highest generation, "" if none) and everything else that
// log owns and should clear out (its older generations and temp files).
func pickSegments(log string, names []string) (live string, stale []string) {
	var bestGen uint64
	for _, n := range names {
		if tmp, ok := strings.CutSuffix(n, tmpSuffix); ok {
			if _, ours := segmentGen(log, tmp); ours {
				stale = append(stale, n)
			}
			continue
		}
		gen, ok := segmentGen(log, n)
		if !ok {
			continue // another log's, or not a segment; leave it alone
		}
		if live == "" || gen > bestGen {
			if live != "" {
				stale = append(stale, live)
			}
			live, bestGen = n, gen
		} else {
			stale = append(stale, n)
		}
	}
	return live, stale
}

func readAll(fs FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Replay parses one segment image and returns the longest clean prefix
// of record payloads. The payloads are sub-slices of data, not copies:
// Open hands out slices of the segment image it just read, which nobody
// else holds, so replay costs no allocation per record. clean reports
// that every byte of data was accounted for by valid frames under the
// expected generation; !clean means replay stopped at a bad header,
// bad frame or torn tail, per the torn-tail rule. It is exported for
// the fuzz harness; Open applies it to the live segment.
func Replay(data []byte, wantGen uint64) (records [][]byte, clean bool) {
	if len(data) < headerSize {
		return nil, false
	}
	if [4]byte(data[:4]) != magic ||
		binary.LittleEndian.Uint32(data[4:8]) != version ||
		binary.LittleEndian.Uint64(data[8:16]) != wantGen {
		return nil, false
	}
	off := headerSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			return records, false // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n > MaxRecord || int(n) > len(rest)-frameHeaderSize {
			return records, false // absurd length or torn payload
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		sum := crc32.Update(crc32.Checksum(rest[:4], castagnoli), castagnoli, payload)
		if sum != binary.LittleEndian.Uint32(rest[4:8]) {
			return records, false // damaged frame
		}
		records = append(records, payload[:len(payload):len(payload)])
		off += frameHeaderSize + int(n)
	}
	return records, true
}

// appendFrame appends one framed payload to buf and returns it. The
// header is built in place inside buf so a warm append allocates
// nothing (a stack header array would escape through crc32.Checksum).
func appendFrame(buf, payload []byte) []byte {
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(payload)))
	sum := crc32.Update(crc32.Checksum(buf[off:off+4], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[off+4:off+8], sum)
	return append(buf, payload...)
}

// startSegment writes a fresh generation seeded with records, commits
// it via rename + directory sync, removes the previous segment and
// makes it the live append target. Caller holds l.mu (or owns l
// exclusively, as Open does).
func (l *Log) startSegment(gen uint64, records [][]byte) error {
	dir := l.opt.Dir
	tmp := filepath.Join(dir, segmentName(l.opt.Name, gen)+tmpSuffix)
	final := filepath.Join(dir, segmentName(l.opt.Name, gen))

	buf := make([]byte, 0, headerSize)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	for _, rec := range records {
		if len(rec) > MaxRecord {
			return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(rec))
		}
		buf = appendFrame(buf, rec)
	}

	f, err := l.opt.FS.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		_ = l.opt.FS.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = l.opt.FS.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = l.opt.FS.Remove(tmp)
		return err
	}
	// The commit point: after this rename the new generation is the
	// highest on disk and wins every future Open.
	if err := l.opt.FS.Rename(tmp, final); err != nil {
		_ = l.opt.FS.Remove(tmp)
		return err
	}
	if err := l.opt.FS.SyncDir(dir); err != nil {
		return err
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	if l.gen != 0 && l.gen != gen {
		_ = l.opt.FS.Remove(filepath.Join(dir, segmentName(l.opt.Name, l.gen)))
	}
	af, err := l.opt.FS.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen new segment: %w", err)
	}
	l.f = af
	l.gen = gen
	l.size = int64(len(buf))
	l.wedged = nil
	l.lastCompact = l.opt.Clock.Now()
	l.gGen.Set(float64(gen))
	l.gBytes.Set(float64(l.size))
	return nil
}

// Append journals one record. The payload is framed and written in a
// single write; durability follows the sync policy. The caller may
// reuse payload after Append returns. An error means the record is not
// guaranteed durable; after a failed write the log wedges (ErrWedged)
// until reopened, so a torn tail is never built upon.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		l.cAppendErr.Inc()
		return fmt.Errorf("%w: %w", ErrWedged, l.wedged)
	}
	l.buf = appendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		// The tail may hold a torn frame now; refuse to append past it.
		l.wedged = err
		l.cAppendErr.Inc()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(l.buf))
	l.stats.Appends++
	l.cAppend.Inc()
	l.gBytes.Set(float64(l.size))
	switch l.opt.Policy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if now := l.opt.Clock.Now(); now.Sub(l.lastSync) >= l.opt.Interval {
			return l.syncLocked()
		}
	}
	return nil
}

// Sync forces an fsync of the live segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.cSyncErr.Inc()
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.lastSync = l.opt.Clock.Now()
	l.cSync.Inc()
	return nil
}

// CompactDue reports whether the compaction policy (segment size plus
// clock spacing) says the consumer should snapshot its state and call
// Compact. It never mutates anything, so callers may poll it after
// every append.
func (l *Log) CompactDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.size < l.opt.CompactBytes {
		return false
	}
	if l.opt.CompactEvery > 0 &&
		l.opt.Clock.Now().Sub(l.lastCompact) < l.opt.CompactEvery {
		return false
	}
	return true
}

// Compact replaces the log's contents with the given snapshot records:
// they are written as generation g+1, committed by rename, and the old
// segment is removed. On error the old generation stays live and
// intact. Compact also clears a wedged tail (the snapshot supersedes
// it).
func (l *Log) Compact(records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.startSegment(l.gen+1, records); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	l.stats.Compactions++
	l.cCompact.Inc()
	return nil
}

// Stats snapshots the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Generation = l.gen
	s.SegmentSize = l.size
	return s
}

// Dir returns the segment directory.
func (l *Log) Dir() string { return l.opt.Dir }

// Close syncs (best-effort when wedged) and closes the live segment.
// Further operations return ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.wedged == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
