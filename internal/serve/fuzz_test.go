package serve

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeRequest hardens the /solve JSON decode path: arbitrary
// bodies must either produce a request that passes validation or a
// clean error — never a panic, and never a request that validation
// would have rejected.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"tasks":[4,4,4],"weights":[8,2,2]}`))
	f.Add([]byte(`{"tenant":"t","tasks":[2,2],"form":"qcqm2","k":1,"budget_ms":100,"seed":7}`))
	f.Add([]byte(`{"tasks":[1]}`))
	f.Add([]byte(`{"tasks":[4,4]} {"tasks":[4,4]}`))
	f.Add([]byte(`{"tasks":[-1,2]}`))
	f.Add([]byte(`{"tasks":[4,4],"unknown":true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"weights":[1e309]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		lim := Limits{MaxProcs: 16, MaxTasksPerProc: 1 << 10, MaxBodyBytes: 1 << 16}
		req, err := DecodeRequest(bytes.NewReader(body), lim)
		if err != nil {
			return
		}
		// A decoded request must be internally consistent: re-validation
		// passes and the derived build options are well-formed.
		if verr := req.Validate(lim); verr != nil {
			t.Fatalf("decoded request fails re-validation: %v (body %q)", verr, body)
		}
		if req.Tenant == "" {
			t.Fatal("decoded request has empty tenant after validation")
		}
		if k := req.k(); k == 0 {
			t.Fatalf("derived K must never be 0 (unconstrained is -1), got %d", k)
		}
	})
}

// FuzzJournalRecord hardens the journal decoder, which reads bytes back
// from disk: arbitrary input never panics, and whatever decodes
// re-encodes to bytes that decode to the same record (compared by its
// encoding, so NaN weights and signed zeros count bit for bit). It also
// runs the other direction: an accept for any request Validate admits,
// whatever its integer fields, decodes to that request.
func FuzzJournalRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(appendRecord(nil, &rec), "", 0, 0, int64(0))
	}
	f.Add([]byte(`{"v":1,"op":"done","id":"j00000001"}`), "t", 3, 2500, int64(-7))
	f.Add([]byte{recordVersion, opDone, 1, flagMetrics}, "bsp", 3_000_000_000, 3_000_000_000, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte, tenant string, k, budgetMs int, seed int64) {
		lim := Limits{MaxProcs: 16, MaxTasksPerProc: 1 << 10}
		rec, err := decodeRecord(data, lim)
		op, id, ok := peekRecord(data)
		if err == nil {
			if !ok || op != rec.Op || id != rec.ID {
				t.Fatalf("peek = %d, %d, %v; decode = %d, %d", op, id, ok, rec.Op, rec.ID)
			}
			b := appendRecord(nil, &rec)
			again, err := decodeRecord(b, lim)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v (%x)", err, b)
			}
			if b2 := appendRecord(nil, &again); !bytes.Equal(b2, b) {
				t.Fatalf("encode→decode→encode changed the bytes:\n%x\n%x", b, b2)
			}
		}

		req := &Request{Tenant: tenant, Tasks: []int{2, 2}, K: k, BudgetMs: budgetMs, Seed: seed}
		if req.Validate(lim) != nil {
			return
		}
		acc := journalRecord{Op: opAccept, ID: seed & math.MaxInt64, Req: req, BudgetMs: int64(budgetMs)}
		got, err := decodeRecord(appendRecord(nil, &acc), lim)
		if err != nil {
			t.Fatalf("accept for a valid request does not decode: %v (%+v)", err, req)
		}
		if !reflect.DeepEqual(got, acc) {
			t.Fatalf("accept round trip changed the record:\n got %+v\nwant %+v", got, acc)
		}
	})
}
