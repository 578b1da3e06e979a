package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// sampleRecords covers every op and every optional part of the v2
// layout: weights present and absent, metrics present and absent, an
// error string, a plan, floats whose bits a text format would not keep,
// and integers (k, budgets, ids, metric counts) that 32 bits would not
// hold. Every accept carries a request Validate admits.
func sampleRecords() []journalRecord {
	return []journalRecord{
		{Op: opAccept, ID: 1, BudgetMs: 2000, Req: &Request{
			Tenant: "bsp", Tasks: []int{4, 4, 4}, Weights: []float64{8, 2, 0.1 + 0.2},
			Form: "qcqm2", K: 3, BudgetMs: 2500, Seed: -7,
		}},
		{Op: opAccept, ID: 12345678901, Req: &Request{Tenant: "default", Tasks: []int{1 << 20, 1 << 20}}},
		{Op: opAccept, ID: math.MaxInt64, BudgetMs: math.MaxInt64, Req: &Request{
			Tenant: "default", Tasks: []int{3, 3}, K: 3_000_000_000, BudgetMs: 3_000_000_000, Seed: math.MinInt64,
		}},
		{Op: opDone, ID: 6, Plan: [][]int{{3, 0}, {0, 3}}, Metrics: &Metrics{Migrated: 1 << 40, Qubits: 1 << 40}},
		{Op: opDone, ID: 1, Plan: [][]int{{4, 0, 1}, {0, 4, 0}, {0, 0, 3}}, Metrics: &Metrics{
			ImbalanceBefore: 1.7142857142857142, ImbalanceAfter: math.Nextafter(1, 2),
			Speedup: 1.3, Migrated: 1, Objective: -12.5, Qubits: 740,
			SampleFeasible: true, Repaired: true, WallMs: 0.123456789, CacheHit: true,
		}},
		{Op: opDone, ID: 2, Plan: [][]int{{2, 0}, {0, 2}}, Metrics: &Metrics{WallMs: math.Copysign(0, -1)}},
		{Op: opFail, ID: 3, Err: "serve: deadline expired after 1s in queue: context deadline exceeded"},
		{Op: opReject, ID: 4, Err: ErrQueueFull.Error()},
		{Op: opEvict, ID: 5},
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		b := appendRecord(nil, &rec)
		op, id, ok := peekRecord(b)
		if !ok || op != rec.Op || id != rec.ID {
			t.Fatalf("peek(%+v) = %d, %d, %v", rec, op, id, ok)
		}
		got, err := decodeRecord(b, Limits{})
		if err != nil {
			t.Fatalf("decode(%+v): %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
		}
		if got.Req != nil {
			if err := got.Req.Validate(Limits{}); err != nil {
				t.Fatalf("decoded request %+v no longer validates: %v", got.Req, err)
			}
		}
		// Bit for bit: re-encoding yields the same bytes, so the float
		// fields kept their exact bits (including the sign of zero).
		if again := appendRecord(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", again, b)
		}
	}
}

// TestJournalRecordRejectsMalformed: every truncation of a valid record,
// a trailing byte, a count over the limits or over the bytes left, and
// a version-1 JSON record all fail to decode — without panicking and
// without allocating for the bogus count.
func TestJournalRecordRejectsMalformed(t *testing.T) {
	lim := Limits{MaxProcs: 8}
	for _, rec := range sampleRecords() {
		b := appendRecord(nil, &rec)
		for n := 0; n < len(b); n++ {
			if _, err := decodeRecord(b[:n], lim); err == nil {
				t.Fatalf("op %d: %d-byte prefix of a %d-byte record decoded", rec.Op, n, len(b))
			}
		}
		if _, err := decodeRecord(append(b, 0), lim); err == nil {
			t.Fatalf("op %d: record with a trailing byte decoded", rec.Op)
		}
	}
	header := func(op byte) []byte { return []byte{recordVersion, op, 9} }
	cases := map[string][]byte{
		"v1 json":    []byte(`{"v":1,"op":"accept","id":"j00000001"}`),
		"unknown op": header(opEvict + 1),
		"bad flags":  append(header(opDone), flagCacheHit, 0, 0),
		"plan over limit": func() []byte {
			b := append(header(opDone), 0, 0)
			return binary.AppendUvarint(b, 9) // MaxProcs is 8
		}(),
		"plan over bytes left": func() []byte {
			b := append(header(opDone), 0, 0)
			return append(binary.AppendUvarint(b, 8), 1, 2, 3) // claims 64 cells
		}(),
		"err over bytes left": append(header(opFail), 0, 200, 'x'),
		"tasks over limit":    appendRecord(nil, &journalRecord{Op: opAccept, ID: 9, Req: &Request{Tasks: make([]int, 9)}}),
		"weights over bytes left": func() []byte {
			b := appendRecord(nil, &journalRecord{Op: opAccept, ID: 9, Req: &Request{Tasks: []int{1, 1}}})
			return append(b[:len(b)-1], 2, 0, 0, 0, 0, 0, 0, 0, 0) // 2 weights, 8 bytes
		}(),
		"plan cell overflow": func() []byte {
			b := binary.AppendUvarint(append(header(opDone), 0, 0), 1)
			return binary.AppendUvarint(b, math.MaxUint64)
		}(),
	}
	for name, b := range cases {
		if rec, err := decodeRecord(b, lim); err == nil {
			t.Errorf("%s: decoded %+v", name, rec)
		}
	}
}
