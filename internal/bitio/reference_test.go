package bitio

import (
	"fmt"
	"math/rand"
	"testing"
)

// refReader is the bit-at-a-time reader the word-at-a-time Reader
// replaced, kept as the differential reference: every exported read must
// return the same value and error and leave the same BitPos.
type refReader struct {
	data []byte
	pos  int  // next byte index
	cur  byte // remaining bits of the current byte, left-aligned
	ncur uint // number of valid bits in cur
}

func (r *refReader) ReadBit() (uint, error) {
	if r.ncur == 0 {
		if r.pos >= len(r.data) {
			return 0, ErrUnexpectedEOF
		}
		r.cur = r.data[r.pos]
		r.pos++
		r.ncur = 8
	}
	bit := uint(r.cur >> 7)
	r.cur <<= 1
	r.ncur--
	return bit, nil
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(bit)
	}
	return v, nil
}

func (r *refReader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			return v, nil
		}
		v++
	}
}

func (r *refReader) BitPos() int { return r.pos*8 - int(r.ncur) }

func (r *refReader) SeekBit(bit int) error {
	if bit < 0 || bit > len(r.data)*8 {
		return fmt.Errorf("bitio: seek to bit %d outside input of %d bits", bit, len(r.data)*8)
	}
	r.pos = bit / 8
	rem := uint(bit % 8)
	if rem == 0 {
		r.cur, r.ncur = 0, 0
		return nil
	}
	r.cur = r.data[r.pos] << rem
	r.ncur = 8 - rem
	r.pos++
	return nil
}

// diffOps runs the op sequence encoded in ops against a Reader and the
// reference over data, failing at the first op whose value, error or
// resulting BitPos differs. Each op is one selector byte, followed for
// ReadBits and SeekBit by one or two argument bytes.
func diffOps(t *testing.T, data, ops []byte) {
	t.Helper()
	got, want := NewReader(data), &refReader{data: data}
	arg := func(i *int) int {
		if *i >= len(ops) {
			return 0
		}
		*i++
		return int(ops[*i-1])
	}
	for i, step := 0, 0; i < len(ops); step++ {
		sel := ops[i]
		i++
		var desc string
		var gv, wv uint64
		var gerr, werr error
		switch sel % 4 {
		case 0:
			desc = "ReadBit"
			g, ge := got.ReadBit()
			w, we := want.ReadBit()
			gv, wv, gerr, werr = uint64(g), uint64(w), ge, we
		case 1:
			n := uint(arg(&i) % 65)
			desc = fmt.Sprintf("ReadBits(%d)", n)
			gv, gerr = got.ReadBits(n)
			wv, werr = want.ReadBits(n)
		case 2:
			desc = "ReadUnary"
			gv, gerr = got.ReadUnary()
			wv, werr = want.ReadUnary()
		case 3:
			// Targets span one bit either side of the input, so invalid
			// seeks are exercised too.
			bit := (arg(&i)<<8|arg(&i))%(len(data)*8+3) - 1
			desc = fmt.Sprintf("SeekBit(%d)", bit)
			gerr = got.SeekBit(bit)
			werr = want.SeekBit(bit)
		}
		if gv != wv || (gerr == nil) != (werr == nil) || (werr == ErrUnexpectedEOF) != (gerr == ErrUnexpectedEOF) {
			t.Fatalf("step %d %s over %d bytes: got (%d, %v), reference (%d, %v)", step, desc, len(data), gv, gerr, wv, werr)
		}
		if got.BitPos() != want.BitPos() {
			t.Fatalf("step %d %s over %d bytes: BitPos %d, reference %d", step, desc, len(data), got.BitPos(), want.BitPos())
		}
		if got.Remaining() != len(data)*8-want.BitPos() {
			t.Fatalf("step %d %s: Remaining %d, reference %d", step, desc, got.Remaining(), len(data)*8-want.BitPos())
		}
	}
}

// FuzzBitReader checks the word-at-a-time Reader against the bit-at-a-time
// reference on arbitrary inputs and op sequences, across refill boundaries
// and at the end of the input.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5}, []byte{1, 7, 2, 0, 1, 64, 3, 0, 4, 2})
	f.Add([]byte{}, []byte{0, 1, 0, 2, 3, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, []byte{2, 0, 1, 64, 1, 13, 2})
	f.Add([]byte("0123456789abcdefghij"), []byte{1, 3, 1, 61, 1, 64, 1, 64, 0, 2})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		diffOps(t, data, ops)
	})
}

// TestReaderMatchesReference is the plain-test twin of FuzzBitReader:
// random inputs (some all-ones, so unary runs cross refills) and random op
// sequences, on every `go test` run.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		if trial%5 == 0 {
			for i := range data {
				data[i] |= byte(rng.Intn(256)) | 0xf0
			}
		}
		ops := make([]byte, rng.Intn(60))
		rng.Read(ops)
		diffOps(t, data, ops)
	}
}
