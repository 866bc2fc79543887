package huffman_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"teraphim/internal/bitio"
	"teraphim/internal/huffman"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// refBits is a bit-at-a-time reader: the reference the window-based
// decoders are checked against.
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

func (r *refBits) bits(n int) (uint64, bool) {
	var v uint64
	for i := 0; i < n; i++ {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		v = v<<1 | b
	}
	return v, true
}

func (r *refBits) gamma() (uint64, bool) {
	n := 0
	for {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		if b == 0 {
			break
		}
		n++
	}
	if n > 63 {
		return 0, false
	}
	rest, ok := r.bits(n)
	return 1<<n | rest, ok
}

// refCode decodes a canonical code from its codeword lengths alone: every
// codeword is assigned afresh and looked up by (length, value) one bit at a
// time.
type refCode struct {
	syms   map[[2]uint64]uint32
	maxLen int
}

var errRefUnknown = errors.New("reference: unknown codeword")
var errRefEOF = errors.New("reference: end of input")

func newRefCode(lengths []uint8) *refCode {
	var order []int
	rc := &refCode{syms: map[[2]uint64]uint32{}}
	for s, l := range lengths {
		if l > 0 {
			order = append(order, s)
			rc.maxLen = max(rc.maxLen, int(l))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if lengths[a] != lengths[b] {
			return lengths[a] < lengths[b]
		}
		return a < b
	})
	var code uint64
	prevLen := uint8(0)
	for i, s := range order {
		l := lengths[s]
		if i > 0 {
			code++
		}
		code <<= l - prevLen
		prevLen = l
		rc.syms[[2]uint64{uint64(l), code}] = uint32(s)
	}
	return rc
}

func (rc *refCode) decode(r *refBits) (uint32, error) {
	var code uint64
	for l := 1; l <= rc.maxLen; l++ {
		b, ok := r.bit()
		if !ok {
			return 0, errRefEOF
		}
		code = code<<1 | b
		if s, ok := rc.syms[[2]uint64{uint64(l), code}]; ok {
			return s, nil
		}
	}
	return 0, errRefUnknown
}

// refModel is TextModel.DecompressDoc rebuilt on the reference decoder.
type refModel struct {
	words, seps     []string
	wordRef, sepRef *refCode
	escapes         int
}

func newRefModel(m *huffman.TextModel) *refModel {
	words, seps, wc, sc := huffman.ModelTables(m)
	return &refModel{words: words, seps: seps, wordRef: newRefCode(wc.Lengths()), sepRef: newRefCode(sc.Lengths())}
}

func (rm *refModel) token(r *refBits, rc *refCode, lex []string) (string, error) {
	sym, err := rc.decode(r)
	if err != nil {
		return "", err
	}
	if sym != 0 {
		if int(sym) >= len(lex) {
			return "", fmt.Errorf("symbol %d outside lexicon", sym)
		}
		return lex[sym], nil
	}
	rm.escapes++
	n, ok := r.gamma()
	if !ok {
		return "", errRefEOF
	}
	n--
	if n > uint64(len(r.data)*8-r.pos)/8 {
		return "", errRefEOF
	}
	buf := make([]byte, n)
	for i := range buf {
		b, _ := r.bits(8)
		buf[i] = byte(b)
	}
	return string(buf), nil
}

func (rm *refModel) decompress(data []byte) (string, error) {
	r := &refBits{data: data}
	nspans, ok := r.gamma()
	if !ok {
		return "", errRefEOF
	}
	var sb strings.Builder
	for i := uint64(1); i < nspans; i++ {
		sep, err := rm.token(r, rm.sepRef, rm.seps)
		if err != nil {
			return "", err
		}
		word, err := rm.token(r, rm.wordRef, rm.words)
		if err != nil {
			return "", err
		}
		sb.WriteString(sep)
		sb.WriteString(word)
	}
	tail, err := rm.token(r, rm.sepRef, rm.seps)
	sb.WriteString(tail)
	return sb.String(), err
}

// TestDecompressMatchesReference decompresses every document of a
// trecsynth store with TextModel.DecompressDoc and with the bit-at-a-time
// reference, then every document again under a model trained on a tenth of
// the corpus, so that novel tokens take the escape path, and finally
// truncated blobs, which must fail in both.
func TestDecompressMatchesReference(t *testing.T) {
	cfg := trecsynth.DefaultConfig()
	cfg.Subs = []trecsynth.SubSpec{{Name: "AP", NumDocs: 600}}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := corpus.AllDocs()
	st, err := store.Build(docs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(st.Model())
	for id := uint32(0); id < st.NumDocs(); id++ {
		blob, err := st.FetchCompressed(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Model().DecompressDoc(blob)
		if err != nil {
			t.Fatalf("doc %d: %v", id, err)
		}
		want, err := ref.decompress(blob)
		if err != nil || got != want || got != docs[id].Text {
			t.Fatalf("doc %d: decoded %q, reference %q (%v), original %q", id, got, want, err, docs[id].Text)
		}
	}

	texts := make([]string, len(docs)/10)
	for i := range texts {
		texts[i] = docs[i].Text
	}
	small, err := huffman.NewTextModel(texts)
	if err != nil {
		t.Fatal(err)
	}
	ref = newRefModel(small)
	rng := rand.New(rand.NewSource(5))
	for i, d := range docs {
		blob, err := small.CompressDoc(d.Text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := small.DecompressDoc(blob)
		if err != nil || got != d.Text {
			t.Fatalf("doc %d under the small model: %q, %v", i, got, err)
		}
		if want, err := ref.decompress(blob); err != nil || want != got {
			t.Fatalf("doc %d under the small model: reference %q, %v", i, want, err)
		}
		if len(blob) == 0 {
			continue
		}
		cut := blob[:rng.Intn(len(blob))]
		if got, err := small.DecompressDoc(cut); err == nil {
			t.Fatalf("doc %d cut to %d of %d bytes decoded to %q, want an error", i, len(cut), len(blob), got)
		}
		if _, err := ref.decompress(cut); err == nil {
			t.Fatalf("doc %d cut to %d bytes: the reference decoded it", i, len(cut))
		}
	}
	if ref.escapes == 0 {
		t.Fatal("no escape token was decoded; the escape path went untested")
	}
}

// TestCodeDecodeMatchesReference decodes random bit strings with random
// canonical codes, complete and incomplete, up to the longest codeword the
// package allows: every symbol, unknown-codeword error, end-of-input error
// and reader position must match the reference.
func TestCodeDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		lengths := randomLengths(rng)
		code, err := huffman.NewFromLengths(lengths)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := newRefCode(lengths)
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		r, rr := bitio.NewReader(data), &refBits{data: data}
		for step := 0; ; step++ {
			got, gerr := code.Decode(r)
			want, werr := ref.decode(rr)
			if got != want || (gerr == nil) != (werr == nil) ||
				errors.Is(gerr, huffman.ErrUnknownSymbol) != (werr == errRefUnknown) {
				t.Fatalf("trial %d step %d: got (%d, %v), reference (%d, %v)", trial, step, got, gerr, want, werr)
			}
			if r.BitPos() != rr.pos {
				t.Fatalf("trial %d step %d: BitPos %d, reference %d", trial, step, r.BitPos(), rr.pos)
			}
			if werr == errRefEOF {
				break
			}
		}
	}
}

// randomLengths draws codeword lengths satisfying Kraft's inequality: some
// complete, some leaving codewords unassigned, some reaching the 58-bit
// maximum.
func randomLengths(rng *rand.Rand) []uint8 {
	const maxLen = 58
	n := rng.Intn(300) + 1
	lengths := make([]uint8, n)
	// Kraft sum in units of 2^-maxLen.
	var used uint64
	for i := range lengths {
		if rng.Intn(8) == 0 {
			continue // unused symbol
		}
		var l uint8
		switch rng.Intn(4) {
		case 0:
			l = uint8(rng.Intn(maxLen) + 1)
		default:
			l = uint8(rng.Intn(12) + 1)
		}
		for l <= maxLen && used+uint64(1)<<(maxLen-l) > uint64(1)<<maxLen {
			l++
		}
		if l > maxLen {
			continue
		}
		used += uint64(1) << (maxLen - l)
		lengths[i] = l
	}
	if used == 0 {
		lengths[0] = 1
	}
	return lengths
}
