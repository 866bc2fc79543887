package codec

import (
	"reflect"
	"testing"
	"testing/quick"

	"teraphim/internal/bitio"
)

// postingsFromBytes derives a valid postings list from arbitrary fuzz
// bytes: consecutive byte pairs become (gap, f_dt) with gap ≥ 1 and
// f_dt ≥ 1, truncated at numDocs — exactly the contract EncodePostings
// demands (strictly increasing docs below numDocs, positive frequencies).
func postingsFromBytes(data []byte, numDocs uint32) []Posting {
	var postings []Posting
	doc := int64(-1)
	for i := 0; i+1 < len(data); i += 2 {
		doc += int64(data[i]%7) + 1
		if doc >= int64(numDocs) {
			break
		}
		postings = append(postings, Posting{Doc: uint32(doc), FDT: uint32(data[i+1]%255) + 1})
	}
	return postings
}

// FuzzPostingsRoundTrip checks the MG inverted-list codec end to end:
// every doc-gap/frequency list derived from fuzz input must survive
// Golomb/gamma encode → decode exactly, for any collection size.
func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21}, uint32(100))
	f.Add([]byte{0, 0, 0, 0}, uint32(1))
	f.Add([]byte{255, 255, 255, 1}, uint32(1<<30))
	f.Add([]byte{}, uint32(50))
	f.Fuzz(func(t *testing.T, data []byte, numDocs uint32) {
		if numDocs == 0 {
			numDocs = 1
		}
		postings := postingsFromBytes(data, numDocs)
		w := bitio.NewWriter(len(postings) * 2)
		if err := EncodePostings(w, postings, numDocs); err != nil {
			t.Fatalf("encode valid postings (%d entries, N=%d): %v", len(postings), numDocs, err)
		}
		got, err := DecodePostings(nil, bitio.NewReader(w.Bytes()), len(postings), numDocs)
		if err != nil {
			t.Fatalf("decode (%d entries, N=%d): %v", len(postings), numDocs, err)
		}
		if len(got) != len(postings) {
			t.Fatalf("decoded %d postings, want %d", len(got), len(postings))
		}
		for i := range postings {
			if got[i] != postings[i] {
				t.Fatalf("posting %d: got %+v, want %+v", i, got[i], postings[i])
			}
		}
	})
}

// FuzzPostingsDecodeCorrupt throws arbitrary bits at DecodePostings: it
// must error or succeed without panicking, and every posting it does
// produce must respect the doc < numDocs invariant.
func FuzzPostingsDecodeCorrupt(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, 3, uint32(100))
	f.Add([]byte{}, 1, uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, count int, numDocs uint32) {
		if numDocs == 0 {
			numDocs = 1
		}
		if count < 0 {
			count = 0
		}
		if count > 1<<16 {
			count = 1 << 16 // decoded postings are bounded by input bits anyway
		}
		got, _ := DecodePostings(nil, bitio.NewReader(data), count, numDocs)
		for i, p := range got {
			if p.Doc >= numDocs {
				t.Fatalf("posting %d: doc %d escaped collection of %d", i, p.Doc, numDocs)
			}
		}
	})
}

// TestPostingsQuickRoundTrip is the testing/quick twin of the fuzz target,
// so the property is exercised on every plain `go test` run.
func TestPostingsQuickRoundTrip(t *testing.T) {
	prop := func(data []byte, numDocs uint32) bool {
		if numDocs == 0 {
			numDocs = 1
		}
		postings := postingsFromBytes(data, numDocs)
		w := bitio.NewWriter(len(postings) * 2)
		if err := EncodePostings(w, postings, numDocs); err != nil {
			return false
		}
		got, err := DecodePostings(nil, bitio.NewReader(w.Bytes()), len(postings), numDocs)
		if err != nil {
			return false
		}
		if len(postings) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, postings)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
