package codec

import (
	"fmt"
	"math/bits"

	"teraphim/internal/bitio"
)

// Posting is one (document, within-document frequency) pair in an inverted
// list. Doc identifiers are local to a collection and start at 0.
type Posting struct {
	Doc uint32
	FDT uint32 // f_{d,t}: occurrences of the term in the document
}

// EncodePostings appends the compressed form of postings to w using the MG
// layout: document gaps Golomb-coded with a parameter derived from the list
// density, frequencies gamma-coded. Postings must be sorted by Doc with no
// duplicates. numDocs is the collection size N used to tune the Golomb
// parameter; it must be greater than the largest Doc.
func EncodePostings(w *bitio.Writer, postings []Posting, numDocs uint32) error {
	if len(postings) == 0 {
		return nil
	}
	b := GolombParameter(uint64(numDocs), uint64(len(postings)))
	prev := int64(-1)
	for i, p := range postings {
		gap := int64(p.Doc) - prev
		if gap <= 0 {
			return fmt.Errorf("codec: postings not strictly increasing at index %d (doc %d)", i, p.Doc)
		}
		if p.Doc >= numDocs {
			return fmt.Errorf("codec: doc %d outside collection of %d documents", p.Doc, numDocs)
		}
		if err := PutGolomb(w, uint64(gap), b); err != nil {
			return err
		}
		if err := PutGamma(w, uint64(p.FDT)); err != nil {
			return fmt.Errorf("codec: f_dt for doc %d: %w", p.Doc, err)
		}
		prev = int64(p.Doc)
	}
	return nil
}

// DecodePostingsInto is the allocation-free fast path used by block-decoding
// cursors: it decodes exactly count postings from r into dst[:count], given
// the list's Golomb divisor b and the document id preceding the block
// (prevDoc, -1 at the start of a list — gap coding is continuous across
// blocks, so a decoder that seeks to a skip point resumes with the skip
// entry's last document). It returns the last document id decoded so the
// caller can chain blocks. dst must have room for count postings; no bounds
// validation is performed beyond the bitstream itself, callers wanting the
// checked path use DecodePostings.
//
// Postings are taken whole from a peeked 64-bit window, as many as fit in
// it per refill: the Golomb quotient's leading ones, the truncated-binary
// remainder and the gamma f_dt. A posting that does not fit in a freshly
// peeked window — at the end of the stream, or with a long quotient or
// gamma code — is decoded by the checked Golomb and Gamma calls instead,
// from the same position. The postings, the returned document, the error
// and the reader's final position are therefore those of the checked calls
// on every input, valid or corrupt.
func DecodePostingsInto(dst []Posting, r *bitio.Reader, count int, b uint64, prevDoc int64) (int64, error) {
	doc := prevDoc
	// nbits and thresh are readTruncated's, hoisted out of the loop. b == 1
	// has no remainder bits (nbits and thresh 0 make the remainder step
	// below a no-op); b == 0 always takes the checked path, which rejects it.
	var nbits uint
	var thresh uint64
	if b > 1 {
		nbits = uint(bits.Len64(b - 1))
		thresh = uint64(1)<<nbits - b
	}
	for i := 0; i < count; {
		w, n := r.Peek()
		took := uint(0)
		for ; i < count && b != 0; i++ {
			q := uint(bits.LeadingZeros64(^w))
			used := q + 1
			if used+nbits > n {
				break
			}
			// Truncated binary: the next nbits-1 bits, or nbits when those
			// reach the threshold.
			x := w << used >> (64 - nbits)
			rem := x >> 1
			used += nbits
			if rem < thresh {
				used--
			} else {
				rem = x - thresh
			}
			t := w << used
			l := uint(bits.LeadingZeros64(^t))
			if used+2*l+1 > n {
				break
			}
			fdt := uint64(1)<<l | t<<l>>(63-l)
			used += 2*l + 1
			w <<= used
			n -= used
			took += used
			doc += int64(uint64(q)*b + rem + 1)
			dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
		}
		r.Skip(took)
		if took > 0 || i == count {
			continue
		}
		gap, err := Golomb(r, b)
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d gap: %w", i, err)
		}
		fdt, err := Gamma(r)
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
		i++
	}
	return doc, nil
}

// DecodePostings reads count postings previously written by EncodePostings
// with the same numDocs, appending them to dst and returning it.
func DecodePostings(dst []Posting, r *bitio.Reader, count int, numDocs uint32) ([]Posting, error) {
	if count == 0 {
		return dst, nil
	}
	b := GolombParameter(uint64(numDocs), uint64(count))
	doc := int64(-1)
	for i := 0; i < count; i++ {
		gap, err := Golomb(r, b)
		if err != nil {
			return dst, fmt.Errorf("codec: posting %d gap: %w", i, err)
		}
		fdt, err := Gamma(r)
		if err != nil {
			return dst, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		if doc >= int64(numDocs) {
			return dst, fmt.Errorf("codec: decoded doc %d outside collection of %d documents", doc, numDocs)
		}
		dst = append(dst, Posting{Doc: uint32(doc), FDT: uint32(fdt)})
	}
	return dst, nil
}
