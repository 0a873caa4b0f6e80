package value

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Row is a tuple of values. Operators share backing arrays only when
// safe; mutating code must Clone first.
type Row []Value

// Clone returns a deep-enough copy of r (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row holding r followed by o.
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	out = append(out, o...)
	return out
}

// String renders the row for debugging: (v1, v2, ...).
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EncodeKey appends a canonical byte encoding of v to dst. Values that
// compare equal under Compare encode identically (ints and integral
// floats normalize to the same bytes), so the encoding is safe for hash
// join and group-by keys.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool, KindInt, KindDate:
		return appendNumeric(dst, float64(v.I), v.I, true)
	case KindFloat:
		if f := v.F; f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			return appendNumeric(dst, f, int64(f), true)
		}
		return appendNumeric(dst, v.F, 0, false)
	case KindString:
		dst = append(dst, 0x02)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(v.S)))
		dst = append(dst, n[:]...)
		return append(dst, v.S...)
	default:
		return append(dst, 0xff)
	}
}

// IntKey returns the int64 v's key encodes when that key is integral
// (EncodeKey's rule): every BOOL, INT and DATE, and a FLOAT with an
// integral int64 value.
func IntKey(v Value) (int64, bool) {
	switch v.Kind {
	case KindBool, KindInt, KindDate:
		return v.I, true
	case KindFloat:
		if f := v.F; f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			return int64(f), true
		}
	}
	return 0, false
}

func appendNumeric(dst []byte, f float64, i int64, integral bool) []byte {
	dst = append(dst, 0x01)
	var n [8]byte
	if integral {
		binary.LittleEndian.PutUint64(n[:], uint64(i))
	} else {
		binary.LittleEndian.PutUint64(n[:], math.Float64bits(f))
		// Non-integral floats can never equal an int64 encoding above
		// because the tag byte below distinguishes them.
		dst = append(dst, n[:]...)
		return append(dst, 0x02)
	}
	dst = append(dst, n[:]...)
	return append(dst, 0x01)
}

// EncodeRowKey encodes the projection of row at the given column
// ordinals into a string usable as a map key.
func EncodeRowKey(row Row, cols []int) string {
	buf := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		buf = EncodeKey(buf, row[c])
	}
	return string(buf)
}

// KeyOf encodes a single value as a map key string.
func KeyOf(v Value) string {
	return string(EncodeKey(make([]byte, 0, 17), v))
}

// HashRow returns an order-sensitive 64-bit hash of the row, used to
// digest query results. The offline auditor sums row hashes into a
// multiset digest, so the FNV state is passed through an avalanche
// step (the splitmix64 finalizer): raw FNV-1a hashes of rows that
// differ in their last byte — two groups whose COUNT(*) each drop by
// one — differ by tiny, often opposite, amounts that cancel in a sum.
func HashRow(r Row) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 16*len(r))
	for _, v := range r {
		buf = EncodeKey(buf, v)
	}
	_, _ = h.Write(buf)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FormatFloat renders a float the way result tables print it.
func FormatFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', 2, 64)
}
