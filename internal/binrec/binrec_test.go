package binrec

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestCountBoundsByBytesLeft: a count is refused when it exceeds max or
// when the bytes left cannot hold that many elements — including counts
// whose byte total would wrap an int — and a failed read poisons every
// later one.
func TestCountBoundsByBytesLeft(t *testing.T) {
	cases := map[string]struct {
		count     uint64
		max, size int
		left      int
	}{
		"over max":             {count: 5, max: 4, size: 1, left: 10},
		"over bytes left":      {count: 4, max: 100, size: 8, left: 31},
		"product would wrap":   {count: math.MaxInt64/9 + 2, max: math.MaxInt, size: 9, left: 16},
		"largest uvarint":      {count: math.MaxUint64, max: math.MaxInt, size: 1, left: 16},
		"string over the rest": {count: 17, max: 16, size: 1, left: 16},
	}
	for name, tc := range cases {
		b := binary.AppendUvarint(nil, tc.count)
		b = append(b, make([]byte, tc.left)...)
		r := NewReader(b)
		if n := r.Count(tc.max, tc.size); n != 0 {
			t.Errorf("%s: Count = %d, want a failed read", name, n)
		}
		if r.Len() != 0 || r.Byte() != 0 || r.Done() {
			t.Errorf("%s: reader still usable after a failed Count", name)
		}
	}
	if s := NewReader([]byte{5, 'a', 'b'}); s.Str() != "" || s.Done() {
		t.Error("Str read past the end of the record")
	}
}
