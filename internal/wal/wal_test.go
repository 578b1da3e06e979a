package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/solve"
)

func fakeClock() *solve.Fake {
	return solve.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func mustOpen(t *testing.T, opt Options) (*Log, [][]byte) {
	t.Helper()
	l, recs, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func asStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpen(t, Options{Dir: dir})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []string{"alpha", "", "gamma with spaces", string(bytes.Repeat([]byte{0xff}, 1024))}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, recs2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := asStrings(recs2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if l2.Stats().Truncated {
		t.Fatal("clean log reported a truncation")
	}
	// Appends continue on the same generation after a clean reopen.
	appendAll(t, l2, "delta")
	l2.Close()
	_, recs3 := mustOpen(t, Options{Dir: dir})
	if len(recs3) != len(want)+1 || string(recs3[len(want)]) != "delta" {
		t.Fatalf("post-reopen append lost: %v", asStrings(recs3))
	}
}

// liveSegment returns the path of the highest-generation segment.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := OS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := pickSegments("log", names)
	if live == "" {
		t.Fatal("no live segment")
	}
	return filepath.Join(dir, live)
}

func TestTornTailTruncatesToPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, "one", "two", "three")
	l.Close()

	seg := liveSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: cut 2 bytes off the tail.
	if err := os.WriteFile(seg, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := asStrings(recs); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("torn tail replay = %v, want the two clean records", got)
	}
	if !l2.Stats().Truncated {
		t.Fatal("truncation not reported")
	}
	// Recovery rewrote a clean higher generation; the next open is clean.
	appendAll(t, l2, "four")
	l2.Close()
	l3, recs3 := mustOpen(t, Options{Dir: dir})
	defer l3.Close()
	if got := asStrings(recs3); len(got) != 3 || got[2] != "four" {
		t.Fatalf("post-recovery state = %v", got)
	}
	if l3.Stats().Truncated {
		t.Fatal("recovery did not leave a clean segment")
	}
}

func TestMidLogFlipNeverFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, "aaaa", "bbbb", "cccc", "dddd")
	l.Close()

	seg := liveSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the second record's payload: replay must stop
	// there and keep only the first record, even though records three
	// and four are intact bytes further on (no resynchronization).
	off := headerSize + frameHeaderSize + 4 + frameHeaderSize + 1
	data[off] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := asStrings(recs); len(got) != 1 || got[0] != "aaaa" {
		t.Fatalf("mid-log flip replay = %v, want just the first record", got)
	}
	if !l2.Stats().Truncated {
		t.Fatal("truncation not reported")
	}
}

func TestHeaderDamageMeansEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, "payload")
	l.Close()

	seg := liveSegment(t, dir)
	data, _ := os.ReadFile(seg)
	data[0] ^= 0xff // break the magic
	os.WriteFile(seg, data, 0o644)

	l2, recs := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("damaged header replayed %v", asStrings(recs))
	}
	if !l2.Stats().Truncated {
		t.Fatal("header damage must count as truncation")
	}
}

func TestCompactionGenerationsAndStaleCleanup(t *testing.T) {
	dir := t.TempDir()
	clk := fakeClock()
	l, _ := mustOpen(t, Options{Dir: dir, Clock: clk})
	appendAll(t, l, "old-1", "old-2", "old-3")
	if err := l.Compact([][]byte{[]byte("snap-1"), []byte("snap-2")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if g := l.Stats().Generation; g != 2 {
		t.Fatalf("generation after compact = %d, want 2", g)
	}
	appendAll(t, l, "new-1")
	l.Close()

	// Only one segment file remains.
	names, _ := OS().ReadDir(dir)
	if len(names) != 1 {
		t.Fatalf("directory holds %v, want exactly the live segment", names)
	}

	l2, recs := mustOpen(t, Options{Dir: dir, Clock: clk})
	defer l2.Close()
	want := []string{"snap-1", "snap-2", "new-1"}
	got := asStrings(recs)
	if len(got) != len(want) {
		t.Fatalf("replay after compact = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay after compact = %v, want %v", got, want)
		}
	}

	// A stale lower generation and an orphan tmp file left by a crash
	// between rename and remove are cleared by Open.
	stale := filepath.Join(dir, segmentName("log", 1))
	os.WriteFile(stale, []byte("garbage"), 0o644)
	os.WriteFile(filepath.Join(dir, segmentName("log", 9)+tmpSuffix), []byte("tmp"), 0o644)
	l2.Close()
	l3, recs3 := mustOpen(t, Options{Dir: dir, Clock: clk})
	defer l3.Close()
	if len(recs3) != len(want) {
		t.Fatalf("stale cleanup replay = %v", asStrings(recs3))
	}
	names, _ = OS().ReadDir(dir)
	if len(names) != 1 {
		t.Fatalf("stale files survived Open: %v", names)
	}
}

// replayCompactEquivalence is the compaction property the dlb/serve
// consumers rely on: compacting a log to a snapshot that equals its
// replayed records changes nothing about what a future Open sees.
func TestReplayCompactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		clk := fakeClock()
		l, _ := mustOpen(t, Options{Dir: dir, Clock: clk})
		n := 1 + rng.Intn(30)
		var want []string
		for i := 0; i < n; i++ {
			rec := make([]byte, rng.Intn(200))
			rng.Read(rec)
			want = append(want, string(rec))
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		// Arm A: plain reopen. Arm B: reopen, compact to the replayed
		// records, reopen again. Both must replay identically.
		a, recsA := mustOpen(t, Options{Dir: dir, Clock: clk})
		snapshot := make([][]byte, len(recsA))
		for i, r := range recsA {
			snapshot[i] = append([]byte(nil), r...)
		}
		if err := a.Compact(snapshot); err != nil {
			t.Fatal(err)
		}
		a.Close()
		b, recsB := mustOpen(t, Options{Dir: dir, Clock: clk})
		b.Close()

		gotA, gotB := asStrings(recsA), asStrings(recsB)
		if len(gotA) != len(want) || len(gotB) != len(want) {
			t.Fatalf("trial %d: lens %d/%d, want %d", trial, len(gotA), len(gotB), len(want))
		}
		for i := range want {
			if gotA[i] != want[i] || gotB[i] != want[i] {
				t.Fatalf("trial %d record %d: replay(compact(log)) != replay(log)", trial, i)
			}
		}
	}
}

func TestSyncIntervalOnFakeClock(t *testing.T) {
	dir := t.TempDir()
	clk := fakeClock()
	reg := obs.NewRegistry()
	l, _ := mustOpen(t, Options{
		Dir: dir, Policy: SyncInterval, Interval: time.Second, Clock: clk, Obs: reg, Name: "t",
	})
	defer l.Close()
	syncs := func() int64 { return reg.Counter("wal.t.syncs").Value() }

	appendAll(t, l, "a", "b", "c")
	if got := syncs(); got != 0 {
		t.Fatalf("%d syncs before the interval elapsed", got)
	}
	clk.Advance(time.Second)
	appendAll(t, l, "d")
	if got := syncs(); got != 1 {
		t.Fatalf("syncs after interval = %d, want 1", got)
	}
	appendAll(t, l, "e")
	if got := syncs(); got != 1 {
		t.Fatalf("interval timer did not reset: %d syncs", got)
	}
}

func TestCompactDuePolicy(t *testing.T) {
	dir := t.TempDir()
	clk := fakeClock()
	l, _ := mustOpen(t, Options{
		Dir: dir, Clock: clk, CompactBytes: 64, CompactEvery: time.Minute, Policy: SyncNone,
	})
	defer l.Close()
	if l.CompactDue() {
		t.Fatal("empty log reports CompactDue")
	}
	appendAll(t, l, string(bytes.Repeat([]byte("x"), 128)))
	if l.CompactDue() {
		t.Fatal("CompactDue ignored the clock spacing gate")
	}
	clk.Advance(time.Minute)
	if !l.CompactDue() {
		t.Fatal("CompactDue false with size and clock both past threshold")
	}
	if err := l.Compact([][]byte{[]byte("s")}); err != nil {
		t.Fatal(err)
	}
	if l.CompactDue() {
		t.Fatal("CompactDue true immediately after compaction")
	}
}

func TestAppendWedgesAfterWriteFault(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(faults.Config{Seed: 9}) // clean schedule; manual crash
	l, _ := mustOpen(t, Options{Dir: dir, FS: Faulty(OS(), inj), Policy: SyncNone})
	appendAll(t, l, "good-1", "good-2")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	inj.Crash()
	if err := l.Append([]byte("lost")); !errors.Is(err, faults.ErrCrashed) {
		t.Fatalf("append on crashed disk = %v, want ErrCrashed", err)
	}
	if err := l.Append([]byte("also-lost")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after failed write = %v, want ErrWedged", err)
	}
	l.Close()

	// Restart: the synced records survive.
	inj.Reset()
	l2, recs := mustOpen(t, Options{Dir: dir, FS: Faulty(OS(), inj)})
	defer l2.Close()
	if got := asStrings(recs); len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
		t.Fatalf("post-crash replay = %v", got)
	}
}

// TestShortWriteTornTailRecovery is the property the issue names: a
// seeded short-write (torn tail) schedule must recover a prefix of the
// acknowledged records, never panic, and never yield a record that
// fails its CRC (Replay re-checks by construction).
func TestShortWriteTornTailRecovery(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		dir := t.TempDir()
		inj := faults.NewInjector(faults.Config{Seed: seed, ShortWrite: 0.3})
		l, _, err := Open(Options{Dir: dir, FS: Faulty(OS(), inj), Policy: SyncNone})
		if err != nil {
			// The injector can tear the segment-creation write itself;
			// that is a failed bootstrap, not a recovery case.
			continue
		}
		var acked []string
		for i := 0; i < 40; i++ {
			rec := fmt.Sprintf("seed%02d-rec%02d", seed, i)
			if err := l.Append([]byte(rec)); err != nil {
				break // torn tail: the log wedges; stop like a crashed writer
			}
			acked = append(acked, rec)
		}
		l.Close()

		l2, recs := mustOpen(t, Options{Dir: dir}) // clean disk after restart
		got := asStrings(recs)
		if len(got) > len(acked) {
			t.Fatalf("seed %d: recovered %d records, only %d were acknowledged", seed, len(got), len(acked))
		}
		for i := range got {
			if got[i] != acked[i] {
				t.Fatalf("seed %d: record %d = %q, want prefix of acknowledged %q", seed, i, got[i], acked[i])
			}
		}
		l2.Close()
	}
}

// TestReadCorruptSchedulePrefixOnly: seeded read corruption during
// replay must degrade to a (possibly empty) prefix of the true records
// — never a record that differs from what was written.
func TestReadCorruptSchedulePrefixOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	var want []string
	for i := 0; i < 25; i++ {
		rec := fmt.Sprintf("record-%02d-%s", i, string(bytes.Repeat([]byte{byte(i)}, 16)))
		want = append(want, rec)
		appendAll(t, l, rec)
	}
	l.Close()

	for seed := int64(1); seed <= 30; seed++ {
		inj := faults.NewInjector(faults.Config{Seed: seed, ReadCorrupt: 0.5})
		l2, recs, err := Open(Options{Dir: dir, FS: Faulty(OS(), inj)})
		if err != nil {
			continue // the read itself can fail; nothing surfaced
		}
		got := asStrings(recs)
		if len(got) > len(want) {
			t.Fatalf("seed %d: %d records from a %d-record log", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: corrupt record %d surfaced: %q != %q", seed, i, got[i], want[i])
			}
		}
		l2.Close()
		// The recovery rewrite may have persisted only the prefix; restore
		// the full log for the next seed.
		if len(got) != len(want) {
			l3, _ := mustOpen(t, Options{Dir: dir})
			for _, rec := range want[len(got):] {
				appendAll(t, l3, rec)
			}
			l3.Close()
			// Paranoia: confirm the restore round-tripped.
			l4, recs4 := mustOpen(t, Options{Dir: dir})
			if len(recs4) != len(want) {
				t.Fatalf("seed %d: restore failed: %d/%d", seed, len(recs4), len(want))
			}
			l4.Close()
		}
	}
}

// scriptHook plays a fixed fault script, then runs clean — for pinning
// a fault to one exact operation.
type scriptHook struct {
	script []faults.Kind
	seq    int
}

func (h *scriptHook) Next() faults.Fault {
	f := faults.Fault{Seq: h.seq}
	if h.seq < len(h.script) {
		f.Kind = h.script[h.seq]
	}
	h.seq++
	return f
}

func TestSyncErrSurfacesButLogContinues(t *testing.T) {
	dir := t.TempDir()
	hook := &scriptHook{}
	reg := obs.NewRegistry()
	l, _, err := Open(Options{Dir: dir, FS: Faulty(OS(), hook), Policy: SyncNone, Obs: reg, Name: "t"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	appendAll(t, l, "rec")
	// Pin SyncErr to the very next operation (the explicit Sync below).
	hook.script = append(make([]faults.Kind, hook.seq), faults.SyncErr)
	if err := l.Sync(); !errors.Is(err, faults.ErrSync) {
		t.Fatalf("Sync = %v, want ErrSync", err)
	}
	if got := reg.Counter("wal.t.sync_errors").Value(); got != 1 {
		t.Fatalf("sync_errors = %d, want 1", got)
	}
	// The data itself is fine; a later append and sync still work.
	appendAll(t, l, "rec2")
	if err := l.Sync(); err != nil {
		t.Fatalf("clean Sync after fault = %v", err)
	}
}

func TestTooLargeAndClosed(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append = %v, want ErrTooLarge", err)
	}
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"always": SyncAlways, "Interval": SyncInterval, " none ": SyncNone,
	} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() == "unknown" {
			t.Fatalf("%v.String() unknown", got)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
}

// TestTwoLogsOneDirKeepTheirRecords pins the shared-directory layout
// qulrbd -state-dir uses: the job journal and the plan-cache journal
// live in one directory. A compaction by one log must not touch the
// other's records, and every acknowledged append of both must replay.
func TestTwoLogsOneDirKeepTheirRecords(t *testing.T) {
	dir := t.TempDir()
	serve, _ := mustOpen(t, Options{Dir: dir, Name: "serve", Policy: SyncAlways})
	cache, _ := mustOpen(t, Options{Dir: dir, Name: "plancache", Policy: SyncAlways})
	appendAll(t, serve, "job-1", "job-2", "job-3")
	appendAll(t, cache, "cache-1")
	if err := cache.Compact([][]byte{[]byte("cache-snap")}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, serve, "job-4", "job-5", "job-6")
	appendAll(t, cache, "cache-2")
	serve.Close()
	cache.Close()

	for _, tc := range []struct {
		name string
		want []string
	}{
		{"serve", []string{"job-1", "job-2", "job-3", "job-4", "job-5", "job-6"}},
		{"plancache", []string{"cache-snap", "cache-2"}},
	} {
		l, recs := mustOpen(t, Options{Dir: dir, Name: tc.name})
		l.Close()
		if got := asStrings(recs); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("%s log replayed %q, want %q", tc.name, got, tc.want)
		}
	}
	names, _ := OS().ReadDir(dir)
	if len(names) != 2 {
		t.Fatalf("directory holds %v, want one live segment per log", names)
	}
}

// TestOpenRefusesLegacySharedSegment: a directory still holding a
// wal-<gen>.log from the shared layout is refused with a typed error
// naming the file, and Open neither deletes it nor starts a log beside
// it.
func TestOpenRefusesLegacySharedSegment(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "wal-0000000000000003.log")
	if err := os.WriteFile(legacy, buildImage(3, [][]byte{[]byte("old")}), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir, Name: "serve"})
	if !errors.Is(err, ErrLegacySegment) || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("Open beside a legacy segment = %v, want ErrLegacySegment naming %s", err, legacy)
	}
	names, _ := OS().ReadDir(dir)
	if len(names) != 1 || names[0] != filepath.Base(legacy) {
		t.Fatalf("refused Open changed the directory: %v", names)
	}
	// Moving the file aside is the upgrade: the log then starts empty.
	if err := os.Rename(legacy, filepath.Join(t.TempDir(), "moved.log")); err != nil {
		t.Fatal(err)
	}
	l, recs := mustOpen(t, Options{Dir: dir, Name: "serve"})
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Name: "wal"}); err == nil {
		t.Fatal("the reserved legacy name was accepted")
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Name: "a/b"}); err == nil {
		t.Fatal("a name with a path separator was accepted")
	}
}
