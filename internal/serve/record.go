package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/binrec"
)

// recordVersion is the job-journal schema, carried in every record's
// first byte. Version 1 was JSON; its records (first byte '{') no
// longer decode and are dropped at replay like any other malformed
// record.
const recordVersion = 2

// Journal record ops.
const (
	opAccept byte = 1 + iota
	opDone
	opFail
	opReject
	opEvict
)

// Terminal-record flag bits. The three outcome bits are only valid with
// flagMetrics, so every flag byte has exactly one decoding.
const (
	flagMetrics byte = 1 << iota
	flagSampleFeasible
	flagRepaired
	flagCacheHit
	flagAll = flagMetrics | flagSampleFeasible | flagRepaired | flagCacheHit
)

// maxPlanCell bounds a decoded plan cell, so a row or column sum over
// MaxProcs cells cannot wrap. Every other integer decodes at full width:
// Validate and verify.Plan, not the decoder, judge values.
const maxPlanCell = math.MaxInt32

// errRecord marks a journal record that does not decode.
var errRecord = errors.New("serve: malformed journal record")

// journalRecord is one job-lifecycle transition. Every record carries
// the numeric job id; accept additionally carries everything needed to
// re-create the job (the validated request and its clamped budget), and
// terminal records carry the outcome.
//
// The v2 encoding (all varints are encoding/binary's, floats are their
// IEEE 754 bits as little-endian uint64, so restored metrics match bit
// for bit):
//
//	record   = u8 version(2) | u8 op | uvarint id | body
//	accept   = uvarint budget_ms | str tenant | str form | uvarint k
//	           | uvarint req_budget_ms | varint seed
//	           | uvarint n | n × uvarint tasks
//	           | uvarint nw | nw × f64 weights
//	terminal = u8 flags | [metrics if flags has flagMetrics] | str err
//	           | uvarint m | m×m × uvarint plan cells (row-major)
//	metrics  = f64 imbalance_before | f64 imbalance_after | f64 speedup
//	           | f64 objective | f64 wall_ms | uvarint migrated | uvarint qubits
//	evict    = (empty)
//	str      = uvarint len | bytes
type journalRecord struct {
	Op       byte
	ID       int64
	Req      *Request
	BudgetMs int64
	Plan     [][]int
	Metrics  *Metrics
	Err      string
}

// jobID renders a numeric job id as the id clients see.
func jobID(n int64) string { return fmt.Sprintf("j%08d", n) }

// parseJobID is jobID's inverse.
func parseJobID(id string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	return n, err == nil && n >= 0
}

// appendRecord appends rec's v2 encoding to b.
func appendRecord(b []byte, rec *journalRecord) []byte {
	b = append(b, recordVersion, rec.Op)
	b = binary.AppendUvarint(b, uint64(rec.ID))
	switch rec.Op {
	case opAccept:
		r := rec.Req
		b = binary.AppendUvarint(b, uint64(rec.BudgetMs))
		b = binrec.AppendStr(b, r.Tenant)
		b = binrec.AppendStr(b, r.Form)
		b = binary.AppendUvarint(b, uint64(r.K))
		b = binary.AppendUvarint(b, uint64(r.BudgetMs))
		b = binary.AppendVarint(b, r.Seed)
		b = binary.AppendUvarint(b, uint64(len(r.Tasks)))
		for _, n := range r.Tasks {
			b = binary.AppendUvarint(b, uint64(n))
		}
		b = binary.AppendUvarint(b, uint64(len(r.Weights)))
		for _, w := range r.Weights {
			b = binrec.AppendFloat(b, w)
		}
	case opDone, opFail, opReject:
		m := rec.Metrics
		var flags byte
		if m != nil {
			flags = flagMetrics
			if m.SampleFeasible {
				flags |= flagSampleFeasible
			}
			if m.Repaired {
				flags |= flagRepaired
			}
			if m.CacheHit {
				flags |= flagCacheHit
			}
		}
		b = append(b, flags)
		if m != nil {
			for _, f := range [...]float64{m.ImbalanceBefore, m.ImbalanceAfter, m.Speedup, m.Objective, m.WallMs} {
				b = binrec.AppendFloat(b, f)
			}
			b = binary.AppendUvarint(b, uint64(m.Migrated))
			b = binary.AppendUvarint(b, uint64(m.Qubits))
		}
		b = binrec.AppendStr(b, rec.Err)
		b = binary.AppendUvarint(b, uint64(len(rec.Plan)))
		for _, row := range rec.Plan {
			for _, c := range row {
				b = binary.AppendUvarint(b, uint64(c))
			}
		}
	}
	return b
}

// peekRecord reads only a record's op and job id — all that replay
// needs to decide whether the rest of the record matters.
func peekRecord(b []byte) (op byte, id int64, ok bool) {
	if len(b) < 3 || b[0] != recordVersion || b[1] < opAccept || b[1] > opEvict {
		return 0, 0, false
	}
	v, n := binary.Uvarint(b[2:])
	if n <= 0 || v > math.MaxInt64 {
		return 0, 0, false
	}
	return b[1], int64(v), true
}

// decodeRecord parses one v2 record. Every length is checked against the
// bytes left, and slice counts also against lim.MaxProcs, before
// anything is allocated for it, so a corrupt length cannot make replay
// allocate more than the record's own size; the record must be consumed
// exactly. Values are not range-checked here: recovery re-runs Validate
// on the request and verify.Plan on the plan.
func decodeRecord(b []byte, lim Limits) (journalRecord, error) {
	lim = lim.withDefaults()
	r := binrec.NewReader(b)
	var rec journalRecord
	if r.Byte() != recordVersion {
		return rec, errRecord
	}
	rec.Op = r.Byte()
	rec.ID = int64(r.Uvarint(math.MaxInt64))
	switch rec.Op {
	case opAccept:
		rec.BudgetMs = int64(r.Uvarint(math.MaxInt64))
		req := &Request{}
		req.Tenant = r.Str()
		req.Form = r.Str()
		req.K = r.Int()
		req.BudgetMs = r.Int()
		req.Seed = r.Varint()
		if n := r.Count(lim.MaxProcs, 1); n > 0 {
			req.Tasks = make([]int, n)
			for i := range req.Tasks {
				req.Tasks[i] = r.Int()
			}
		}
		if n := r.Count(lim.MaxProcs, 8); n > 0 {
			req.Weights = make([]float64, n)
			for i := range req.Weights {
				req.Weights[i] = r.Float()
			}
		}
		rec.Req = req
	case opDone, opFail, opReject:
		flags := r.Byte()
		if flags&^flagAll != 0 || (flags != 0 && flags&flagMetrics == 0) {
			return journalRecord{}, errRecord
		}
		if flags&flagMetrics != 0 {
			m := &Metrics{
				SampleFeasible: flags&flagSampleFeasible != 0,
				Repaired:       flags&flagRepaired != 0,
				CacheHit:       flags&flagCacheHit != 0,
			}
			m.ImbalanceBefore, m.ImbalanceAfter, m.Speedup = r.Float(), r.Float(), r.Float()
			m.Objective, m.WallMs = r.Float(), r.Float()
			m.Migrated, m.Qubits = r.Int(), r.Int()
			rec.Metrics = m
		}
		rec.Err = r.Str()
		if m := r.Count(lim.MaxProcs, 1); m > 0 {
			if m > r.Len()/m { // each cell is at least one byte
				return journalRecord{}, errRecord
			}
			cells := make([]int, m*m)
			for i := range cells {
				cells[i] = int(r.Uvarint(maxPlanCell))
			}
			rec.Plan = make([][]int, m)
			for i := range rec.Plan {
				rec.Plan[i] = cells[i*m : (i+1)*m : (i+1)*m]
			}
		}
	case opEvict:
	default:
		return journalRecord{}, errRecord
	}
	if !r.Done() {
		return journalRecord{}, errRecord
	}
	return rec, nil
}
