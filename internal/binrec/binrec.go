// Package binrec holds the pieces shared by the binary journal records
// of internal/serve and internal/plancache: a bounded reader that
// consumes a record front to back, and the matching appenders for
// floats and strings. Varints are encoding/binary's; a float is its
// IEEE 754 bit pattern as a little-endian uint64, so a value read back
// matches the one written bit for bit.
//
// A record read from disk is untrusted input. The reader checks every
// length against the bytes left before the caller allocates for it,
// and Done reports whether the record was consumed exactly, so a
// corrupt length can never make a decoder allocate more than a small
// multiple of the record's own size.
package binrec

import (
	"encoding/binary"
	"math"
)

// Reader consumes a record front to back. The first failed read marks
// it bad and empties it, so every later read fails too and returns
// zero: callers check Done once at the end.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads rec.
func NewReader(rec []byte) Reader { return Reader{b: rec} }

// Done reports whether every read succeeded and the record has been
// consumed exactly.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail() { r.bad, r.b = true, nil }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uvarint reads an unsigned varint of at most max.
func (r *Reader) Uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > max {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a non-negative integer field.
func (r *Reader) Int() int { return int(r.Uvarint(math.MaxInt)) }

// Float reads a float's IEEE 754 bits.
func (r *Reader) Float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Count reads a length prefix of at most max elements whose encodings
// take at least size bytes each, and fails if the bytes left cannot
// hold that many.
func (r *Reader) Count(max, size int) int {
	n := r.Uvarint(uint64(max))
	if n > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(len(r.b), 1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// AppendFloat appends f's IEEE 754 bits.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendStr appends s with its length prefix.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
