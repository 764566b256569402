package persist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Enc appends little-endian primitives to a growing buffer. The zero
// value is ready to use; read the result with Bytes.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Grow reserves room for n more bytes. A codec that sizes its payload
// first (UvarintLen, SvarintLen, DeltaU32sLen) writes it into one
// allocation instead of a chain of doubling copies.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U32 appends one uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends one uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I32 appends one int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends one int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Ints appends a length-prefixed []int as int64 values.
func (e *Enc) Ints(s []int) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.I64(int64(v))
	}
}

// Uvarint appends one unsigned LEB128 varint (1 byte for values < 128,
// growing 7 bits per byte). The compact integers of the payload codecs
// are built from it.
func (e *Enc) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Svarint appends one zigzag-encoded signed varint: small magnitudes of
// either sign stay short, so nearly-sorted streams delta-encode well even
// when an occasional gap runs backwards.
func (e *Enc) Svarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// UvarintLen returns the number of bytes Uvarint appends for v: one per
// started 7 bits, and one for zero.
func UvarintLen(v uint64) int { return int((uint(bits.Len64(v|1)) + 6) / 7) }

// SvarintLen returns the number of bytes Svarint appends for v: the
// UvarintLen of v's zigzag code.
func SvarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// DeltaU32s appends a strictly-increasing []int32 as a Uvarint count, the
// first value, then the gaps — the delta+varint stream layout of the RR
// sketch codec. Callers must pass a strictly increasing,
// non-negative sequence; Dec.DeltaU32s re-validates on the way back in.
func (e *Enc) DeltaU32s(s []int32) {
	e.Uvarint(uint64(len(s)))
	prev := int32(0)
	for i, v := range s {
		if i == 0 {
			e.Uvarint(uint64(v))
		} else {
			e.Uvarint(uint64(v - prev))
		}
		prev = v
	}
}

// DeltaU32sLen returns the number of bytes DeltaU32s appends for s.
func DeltaU32sLen(s []int32) int {
	n := UvarintLen(uint64(len(s)))
	prev := int32(0)
	for _, v := range s {
		n += UvarintLen(uint64(v - prev))
		prev = v
	}
	return n
}

// Dec reads little-endian primitives from a buffer. The first malformed
// read latches an error; every later read returns zero values, so callers
// decode straight through and check Err (or Close) once at the end.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// err4 checks n more bytes are available, latching ErrCorrupt if not.
func (d *Dec) err4(n int, what string) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated payload reading %s at offset %d", ErrCorrupt, what, d.off)
		return false
	}
	return true
}

// U32 reads one uint32.
func (d *Dec) U32() uint32 {
	if !d.err4(4, "uint32") {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads one uint64.
func (d *Dec) U64() uint64 {
	if !d.err4(8, "uint64") {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I32 reads one int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads one int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Len reads a length prefix, validated against the given per-element
// width so a corrupt length can never trigger a huge allocation.
func (d *Dec) Len(elemBytes int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)/uint64(elemBytes) {
		d.err = fmt.Errorf("%w: length prefix %d exceeds remaining payload", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// Ints reads a length-prefixed []int encoded as int64 values.
func (d *Dec) Ints() []int {
	n := d.Len(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out
}

// Uvarint reads one unsigned LEB128 varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: malformed uvarint at offset %d", ErrCorrupt, d.off)
		return 0
	}
	d.off += n
	return v
}

// Svarint reads one zigzag-encoded signed varint.
func (d *Dec) Svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: malformed varint at offset %d", ErrCorrupt, d.off)
		return 0
	}
	d.off += n
	return v
}

// UvarintLen reads a Uvarint length prefix, validated against the bytes
// remaining (varint elements are at least one byte each) so a corrupt
// length can never trigger a huge allocation.
func (d *Dec) UvarintLen() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("%w: varint length prefix %d exceeds remaining payload", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// DeltaU32s reads a delta+varint stream written by Enc.DeltaU32s into out
// (reallocated when too small) and returns it. The decoded sequence is
// validated to be strictly increasing, non-negative, and bounded by max
// (exclusive) — a corrupt gap is rejected here, before any caller indexes
// with it.
func (d *Dec) DeltaU32s(out []int32, max int32) []int32 {
	n := d.UvarintLen()
	if d.err != nil {
		return nil
	}
	if cap(out) < n {
		out = make([]int32, n)
	}
	out = out[:n]
	prev := int64(-1)
	for i := 0; i < n; i++ {
		var v int64
		if i == 0 {
			v = int64(d.Uvarint())
		} else {
			gap := d.Uvarint()
			if gap == 0 && d.err == nil {
				d.err = fmt.Errorf("%w: zero gap in delta stream at element %d", ErrCorrupt, i)
			}
			v = prev + int64(gap)
		}
		if d.err != nil {
			return nil
		}
		if v <= prev || v >= int64(max) {
			d.err = fmt.Errorf("%w: delta stream element %d decodes to %d, outside (%d,%d)", ErrCorrupt, i, v, prev, max)
			return nil
		}
		out[i] = int32(v)
		prev = v
	}
	return out
}

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Close returns the first decoding error, or ErrCorrupt if undecoded
// bytes remain — a payload must be consumed exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}
