package codec

import (
	"fmt"
	"math/rand"
	"testing"

	"teraphim/internal/bitio"
)

// refBits is a bit-at-a-time reader over data, the differential reference
// for the word-at-a-time decoders: a read that runs off the end consumes
// every remaining bit and fails, as bitio.Reader's reads do.
type refBits struct {
	data []byte
	pos  int // bits consumed
}

func (r *refBits) bit() (uint64, bool) {
	if r.pos >= len(r.data)*8 {
		return 0, false
	}
	b := r.data[r.pos/8] >> (7 - r.pos%8) & 1
	r.pos++
	return uint64(b), true
}

func (r *refBits) bits(n uint) (uint64, bool) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		v = v<<1 | b
	}
	return v, true
}

func (r *refBits) unary() (uint64, bool) {
	var v uint64
	for {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		if b == 0 {
			return v, true
		}
		v++
	}
}

func (r *refBits) gamma() (uint64, bool) {
	n, ok := r.unary()
	if !ok || n > 63 {
		return 0, false
	}
	rest, ok := r.bits(uint(n))
	return 1<<n | rest, ok
}

func (r *refBits) golomb(b uint64) (uint64, bool) {
	if b == 0 {
		return 0, false
	}
	q, ok := r.unary()
	if !ok {
		return 0, false
	}
	var rem uint64
	if b > 1 {
		nbits := uint(bits64Len(b - 1))
		thresh := uint64(1)<<nbits - b
		if rem, ok = r.bits(nbits - 1); !ok {
			return 0, false
		}
		if rem >= thresh {
			bit, ok := r.bit()
			if !ok {
				return 0, false
			}
			rem = rem<<1 + bit - thresh
		}
	}
	return q*b + rem + 1, true
}

// bits64Len is bits.Len64, spelled out so the reference shares no code
// with the decoder under test.
func bits64Len(v uint64) int {
	n := 0
	for ; v != 0; v >>= 1 {
		n++
	}
	return n
}

// refDecodePostingsInto is DecodePostingsInto decoded bit by bit.
func refDecodePostingsInto(dst []Posting, r *refBits, count int, b uint64, prevDoc int64) (int64, bool) {
	doc := prevDoc
	for i := 0; i < count; i++ {
		gap, ok := r.golomb(b)
		if !ok {
			return doc, false
		}
		fdt, ok := r.gamma()
		if !ok {
			return doc, false
		}
		doc += int64(gap)
		dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
	}
	return doc, true
}

// diffDecode decodes count postings from bit start of data in two chained
// calls split at cut, with DecodePostingsInto and with the reference, and
// reports the first difference in postings, last doc, error-ness or final
// bit position.
func diffDecode(data []byte, start, count, cut int, b uint64, prevDoc int64) error {
	got, want := make([]Posting, count), make([]Posting, count)
	r := bitio.NewReader(data)
	if err := r.SeekBit(start); err != nil {
		return err
	}
	ref := &refBits{data: data, pos: start}
	gLast, gErr := DecodePostingsInto(got[:cut], r, cut, b, prevDoc)
	wLast, wOK := refDecodePostingsInto(want[:cut], ref, cut, b, prevDoc)
	if gErr == nil && wOK {
		gLast, gErr = DecodePostingsInto(got[cut:], r, count-cut, b, gLast)
		wLast, wOK = refDecodePostingsInto(want[cut:], ref, count-cut, b, wLast)
	}
	switch {
	case (gErr == nil) != wOK:
		return fmt.Errorf("error %v, reference ok=%v", gErr, wOK)
	case gLast != wLast:
		return fmt.Errorf("last doc %d, reference %d", gLast, wLast)
	case r.BitPos() != ref.pos:
		return fmt.Errorf("BitPos %d, reference %d", r.BitPos(), ref.pos)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("posting %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// FuzzDecodePostingsIntoReference throws arbitrary bits, divisors, counts
// and starting documents at DecodePostingsInto: on every input its output
// must equal the bit-at-a-time reference's, corrupt input included.
func FuzzDecodePostingsIntoReference(f *testing.F) {
	valid := bitio.NewWriter(64)
	if err := EncodePostings(valid, []Posting{{1, 2}, {5, 1}, {9, 40}, {300, 1}}, 400); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), uint64(GolombParameter(400, 4)), uint16(4), int64(-1), uint16(0), uint16(2))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, uint64(3), uint16(9), int64(7), uint16(3), uint16(1))
	f.Add([]byte{}, uint64(1), uint16(1), int64(-1), uint16(0), uint16(0))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f}, uint64(1)<<63+5, uint16(3), int64(-1), uint16(1), uint16(1))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(0), uint16(2), int64(-1), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, b uint64, count uint16, prevDoc int64, start, cut uint16) {
		n := int(count % 4096)
		c := 0
		if n > 0 {
			c = int(cut) % (n + 1)
		}
		s := int(start) % (len(data)*8 + 1)
		if err := diffDecode(data, s, n, c, b, prevDoc); err != nil {
			t.Fatalf("%d bytes from bit %d, count %d split %d, b=%d, prev %d: %v", len(data), s, n, c, b, prevDoc, err)
		}
	})
}

// TestDecodePostingsIntoMatchesReference is the plain-test twin of
// FuzzDecodePostingsIntoReference: encoded lists at dense and sparse
// divisors, then the same lists with bits flipped and tails cut off.
func TestDecodePostingsIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		numDocs := uint32(rng.Intn(200_000) + 2)
		n := rng.Intn(300) + 1
		if n > int(numDocs) {
			n = int(numDocs)
		}
		postings := randomPostings(rng, n, numDocs)
		w := bitio.NewWriter(1024)
		if err := EncodePostings(w, postings, numDocs); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), w.Bytes()...)
		switch trial % 3 {
		case 1:
			for k := rng.Intn(4) + 1; k > 0; k-- {
				data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
			}
		case 2:
			data = data[:rng.Intn(len(data))]
		}
		b := GolombParameter(uint64(numDocs), uint64(n))
		if err := diffDecode(data, 0, n, rng.Intn(n+1), b, -1); err != nil {
			t.Fatalf("trial %d (%d postings, N=%d, b=%d): %v", trial, n, numDocs, b, err)
		}
	}
}

// BenchmarkDecodePostingsInto measures the cursor's block kernel in ns per
// posting: whole lists decoded in 64-posting blocks chained through the
// previous document, as TermCursor.fill does. "dense" is a trecsynth-like
// common term (Golomb divisor 3), "sparse" a rare one (divisor ~690).
func BenchmarkDecodePostingsInto(b *testing.B) {
	for _, bc := range []struct {
		name    string
		n       int
		numDocs uint32
	}{
		{"dense", 20_000, 87_000},
		{"sparse", 2_000, 2_000_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			postings := randomPostings(rng, bc.n, bc.numDocs)
			w := bitio.NewWriter(1 << 16)
			if err := EncodePostings(w, postings, bc.numDocs); err != nil {
				b.Fatal(err)
			}
			data := w.Bytes()
			div := GolombParameter(uint64(bc.numDocs), uint64(bc.n))
			dst := make([]Posting, 64)
			var r bitio.Reader
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				prev := int64(-1)
				for done := 0; done < bc.n; done += len(dst) {
					blk := min(len(dst), bc.n-done)
					var err error
					if prev, err = DecodePostingsInto(dst[:blk], &r, blk, div, prev); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/posting")
		})
	}
}
