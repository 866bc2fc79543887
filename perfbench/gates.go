package main

import (
	"context"
	"fmt"
	"math"

	"teraphim/internal/core"
	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// sameAnswers reports whether two rankings are bit-identical: same
// documents (librarian and local id) in the same order with the same
// float64 scores, and, when withText, the same fetched text. Global ids are
// not compared: a pool numbers documents by the collection sizes it saw at
// connect time, so a live fleet that grew and its rebuild number them
// differently.
func sameAnswers(got, want []core.Answer, withText bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Librarian != w.Librarian || g.LocalDoc != w.LocalDoc ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return false
		}
		if withText && g.Text != w.Text {
			return false
		}
	}
	return true
}

// monoAnswers evaluates every query on an MS MonoServer over the whole
// corpus, built untimed with the librarians' analysis pipeline. These are
// the answers CV must reproduce bit for bit.
func monoAnswers(c *trecsynth.Corpus, queries []trecsynth.Query, k int) ([][]core.Answer, error) {
	docs, keys := c.AllDocs()
	analyzer := textproc.NewAnalyzer()
	b := index.NewBuilder()
	for _, d := range docs {
		b.Add(analyzer.Terms(nil, d.Text))
	}
	ix, err := b.Build()
	if err != nil {
		return nil, err
	}
	st, err := store.Build(docs)
	if err != nil {
		return nil, err
	}
	ms, err := core.NewMonoServer(search.NewEngine(ix, analyzer), st, keys)
	if err != nil {
		return nil, err
	}
	out := make([][]core.Answer, len(queries))
	for i, q := range queries {
		res, err := ms.Query(q.Text, k, core.Options{})
		if err != nil {
			return nil, err
		}
		out[i] = res.Answers
	}
	return out, nil
}

// textMismatches counts fetched answers whose text differs from the
// generated document.
func textMismatches(c *trecsynth.Corpus, answers []core.Answer) int {
	bad := 0
	for _, a := range answers {
		doc, ok := corpusDoc(c, a.Librarian, a.LocalDoc)
		if !ok || doc.Text != a.Text {
			bad++
		}
	}
	return bad
}

func corpusDoc(c *trecsynth.Corpus, lib string, local uint32) (store.Document, bool) {
	for _, sub := range c.Subcollections {
		if sub.Name == lib && int(local) < len(sub.Docs) {
			return sub.Docs[local], true
		}
	}
	return store.Document{}, false
}

// rebuildGate is cn-ingest's multi-segment ≡ rebuild gate: after the stream
// stops and every Flush returned, static librarians are built from exactly
// the documents each live librarian holds, and a probe set's CN answers
// from both fleets must be bit-identical. It returns the static librarians
// for the traced run's direct probes, and the number of probe queries whose
// answers differed.
func rebuildGate(f *fleet, docs [][]store.Document, probes []trecsynth.Query, corrupt bool) ([]*librarian.Librarian, int, error) {
	for _, up := range f.ups {
		if err := up.Flush(context.Background()); err != nil {
			return nil, 0, err
		}
	}
	libs := make([]*librarian.Librarian, len(f.names))
	for i, name := range f.names {
		lib, err := librarian.Build(name, docs[i], librarian.BuildOptions{})
		if err != nil {
			return nil, 0, err
		}
		libs[i] = lib
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	static, err := core.NewPool(dialer, f.names, core.Config{})
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		static.Close()
		dialer.Wait()
	}()
	live := f.pool.Session()
	ref := static.Session()
	bad := 0
	for _, q := range probes {
		got, err := live.Query(core.ModeCN, q.Text, f.p.K, core.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("live probe %s: %w", q.ID, err)
		}
		want, err := ref.Query(core.ModeCN, q.Text, f.p.K, core.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("rebuilt probe %s: %w", q.ID, err)
		}
		if corrupt && len(want.Answers) > 0 {
			want.Answers[0].Score += 1
		}
		if !sameAnswers(got.Answers, want.Answers, false) {
			bad++
		}
	}
	return libs, bad, nil
}
