// Package bitio provides bit-granularity readers and writers used by the
// compressed-index and compressed-text codecs.
//
// Bits are written most-significant-bit first within each byte, matching the
// layout used by the MG system's compressed inverted files. A Writer
// accumulates bits into an internal buffer; Bytes returns the padded result.
// A Reader consumes bits from a byte slice through a 64-bit window and
// tracks its position so that skip pointers (byte+bit offsets) can be
// followed.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of input")

// Writer accumulates bits MSB-first into a growable byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // bits accumulated for the in-progress byte
	ncur uint // number of valid bits in cur (0..7)
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint) {
	w.cur = w.cur<<1 | byte(bit&1)
	w.ncur++
	if w.ncur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.ncur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i) & 1))
	}
}

// WriteUnary appends v encoded in unary: v one-bits followed by a zero.
func (w *Writer) WriteUnary(v uint64) {
	for i := uint64(0); i < v; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.ncur)
}

// Bytes flushes the in-progress byte (zero-padded) and returns the buffer.
// The Writer remains usable; the returned slice aliases internal storage
// until the next Write call, so callers that keep it must copy.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.ncur > 0 {
		out = append(out, w.cur<<(8-w.ncur))
	}
	return out
}

// Reset discards all written bits, retaining allocated capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.ncur = 0, 0
}

// Reader consumes bits MSB-first from a byte slice, a 64-bit word at a time.
//
// Unread bits are held left-aligned in acc: its top nacc bits are the next
// nacc bits of the input. Bits of acc below those are either zero or the
// input bits that follow them, so a refill may OR the next bytes in over
// them. Every read is a shift of acc; refills load 8 bytes with one
// big-endian load, and byte by byte in the last 8 bytes of the input.
type Reader struct {
	data []byte
	pos  int    // next byte of data to load into acc
	acc  uint64 // unread bits, left-aligned
	nacc uint   // number of valid bits in acc (0..64)
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset repoints the Reader at data from bit 0, discarding any consumed
// state. It lets callers that hold a Reader by value re-use it across many
// inputs without allocating.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc, r.nacc = 0, 0
}

// refill tops the window up to at least 57 valid bits, or to every
// remaining bit of the input when fewer are left. It is kept out of line
// so that Peek, which runs once per decoded posting, inlines.
//
//go:noinline
func (r *Reader) refill() {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.BigEndian.Uint64(r.data[r.pos:]) >> r.nacc
		k := (64 - r.nacc) >> 3 // whole bytes that fit below the valid bits
		r.pos += int(k)
		r.nacc += k << 3
		return
	}
	for r.nacc <= 56 && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << (56 - r.nacc)
		r.pos++
		r.nacc += 8
	}
}

// Peek returns the window of unread bits, left-aligned, and the number n of
// them that are valid. n is at least 57 unless fewer bits remain, in which
// case it is all of them; bits of the window past n are unspecified. Peek
// consumes nothing: Skip does. Decoders use the pair to take several codes
// from one window, falling back to the checked reads when a code might not
// fit in it.
func (r *Reader) Peek() (window uint64, n uint) {
	if r.nacc <= 56 {
		r.refill()
	}
	return r.acc, r.nacc
}

// Skip consumes n bits of the window the last Peek returned; n must not
// exceed the valid count Peek reported.
func (r *Reader) Skip(n uint) {
	r.acc <<= n
	r.nacc -= n
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nacc == 0 {
		r.refill()
		if r.nacc == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	bit := uint(r.acc >> 63)
	r.acc <<= 1
	r.nacc--
	return bit, nil
}

// ReadBits reads n bits and returns them right-aligned. For n > 64 only the
// last 64 bits read are returned. A read past the end of the input consumes
// the rest of it and returns ErrUnexpectedEOF.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n <= r.nacc {
		v := r.acc >> (64 - n)
		r.acc <<= n
		r.nacc -= n
		return v, nil
	}
	if n > uint(r.Remaining()) {
		r.pos, r.acc, r.nacc = len(r.data), 0, 0
		return 0, ErrUnexpectedEOF
	}
	var v uint64
	for n > 0 {
		if r.nacc == 0 {
			r.refill()
		}
		k := min(n, r.nacc)
		v = v<<k | r.acc>>(64-k)
		r.acc <<= k
		r.nacc -= k
		n -= k
	}
	return v, nil
}

// ReadUnary reads a unary-coded value: the count of one-bits before a zero.
func (r *Reader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		if r.nacc == 0 {
			r.refill()
			if r.nacc == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		ones := uint(bits.LeadingZeros64(^r.acc))
		if ones < r.nacc {
			r.acc <<= ones + 1
			r.nacc -= ones + 1
			return v + uint64(ones), nil
		}
		v += uint64(r.nacc)
		r.acc <<= r.nacc
		r.nacc = 0
	}
}

// BitPos reports the number of bits consumed so far.
func (r *Reader) BitPos() int {
	return r.pos*8 - int(r.nacc)
}

// SeekBit positions the reader at an absolute bit offset.
func (r *Reader) SeekBit(bit int) error {
	if bit < 0 || bit > len(r.data)*8 {
		return fmt.Errorf("bitio: seek to bit %d outside input of %d bits", bit, len(r.data)*8)
	}
	r.pos = bit / 8
	r.acc, r.nacc = 0, 0
	if rem := uint(bit % 8); rem != 0 {
		r.refill()
		r.Skip(rem)
	}
	return nil
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int {
	return len(r.data)*8 - r.BitPos()
}
