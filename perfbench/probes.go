package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/costmodel"
	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// probes are the traced run's direct calls into single layers, each timed
// over the workload's own corpus and query set. Times are µs unless named
// otherwise.
type probes struct {
	analyze       float64 // textproc.Analyzer.Terms per query
	globalWeights float64 // Federation.GlobalWeights per query
	rank          float64 // Engine.Rank with the query's own weights, slowest librarian
	rankAllocs    float64 // heap allocations per Engine.Rank call
	decodePosting float64 // ns per posting walking each query term's list
	groupRank     float64 // CentralIndex().RankGroups per query
	scoreDocs     float64 // Engine.ScoreDocs on the CI candidates, slowest librarian
	fetchDoc      float64 // Store.FetchCompressed per answer document
	decompressDoc float64 // TextModel.DecompressDoc per answer document
	setup         setupTimes
	// Cost-model predictions in ms: rank and fetch over the gate pass's
	// traces, and fetch over CI fetch traces for workloads that do not fetch.
	modelRank, modelFetchOwn, modelFetch float64
}

// probeMin is how long each probe repeats its pass over the query set.
const probeMin = 150 * time.Millisecond

// timed repeats passes of fn over n items until probeMin has elapsed and
// returns the mean of the durations fn reports.
func timed(n int, fn func(i int) time.Duration) float64 {
	var sum time.Duration
	calls := 0
	for start := time.Now(); calls == 0 || time.Since(start) < probeMin; {
		for i := 0; i < n; i++ {
			sum += fn(i)
			calls++
		}
	}
	return float64(sum) / float64(calls) / float64(time.Microsecond)
}

// bulk is timed for operations too short to time one by one: it times whole
// passes and returns ns per item.
func bulk(n int, fn func(i int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < probeMin {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start)) / float64(calls)
}

// runProbes times the direct layer calls. libs are static librarians over
// the workload's documents. Layers the workload itself bypasses (the CI
// set-up, group ranking and candidate scoring outside ci-wan) are probed on
// a second pool over unshaped links to the same librarians.
func runProbes(p params, c *trecsynth.Corpus, f *fleet, libs []*librarian.Librarian, g *gatePass, queries []trecsynth.Query) (probes, error) {
	var pr probes
	n := len(queries)
	analyzer := textproc.NewAnalyzer()
	pr.analyze = timed(n, func(i int) time.Duration {
		t := time.Now()
		analyzer.Terms(nil, queries[i].Text)
		return time.Since(t)
	})

	ciPool, weightsFed := f.pool, f.pool
	pr.setup = f.times
	if p.mode() != core.ModeCI {
		d := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
		pp, err := core.NewPool(d, f.names, core.Config{})
		if err != nil {
			return pr, err
		}
		defer func() {
			pp.Close()
			d.Wait()
		}()
		st, err := setupPool(pp, core.ModeCI, 10)
		if err != nil {
			return pr, err
		}
		ciPool = pp
		pr.setup.models, pr.setup.central = st.models, st.central
		if p.mode() == core.ModeCN {
			pr.setup.vocab = st.vocab
			weightsFed = pp
		}
	}
	fed := weightsFed.Federation()
	weights := make([]map[string]float64, n)
	for i, q := range queries {
		w, err := fed.GlobalWeights(q.Text)
		if err != nil {
			return pr, err
		}
		weights[i] = w
	}
	pr.globalWeights = timed(n, func(i int) time.Duration {
		t := time.Now()
		_, _ = fed.GlobalWeights(queries[i].Text)
		return time.Since(t)
	})

	// The kernel with each query's own weights: CV and CI ship global
	// weights, CN ranks with local statistics.
	own := weights
	if p.mode() == core.ModeCN {
		own = make([]map[string]float64, n)
	}
	pr.rank = timed(n, func(i int) time.Duration {
		var slowest time.Duration
		for _, lib := range libs {
			t := time.Now()
			_, _ = lib.Engine().Rank(queries[i].Text, p.K, own[i])
			slowest = max(slowest, time.Since(t))
		}
		return slowest
	})
	pr.rankAllocs = allocsPer(n*len(libs), func() {
		for i := range queries {
			for _, lib := range libs {
				_, _ = lib.Engine().Rank(queries[i].Text, p.K, own[i])
			}
		}
	})
	pr.decodePosting = decodeProbe(analyzer, libs, queries)

	central := ciPool.Federation().CentralIndex()
	kPrime := p.KPrime
	if kPrime <= 0 {
		kPrime = core.DefaultKPrime
	}
	pr.groupRank = timed(n, func(i int) time.Duration {
		t := time.Now()
		_, _, _ = central.RankGroups(queries[i].Text, kPrime)
		return time.Since(t)
	})
	byName := make(map[string]*librarian.Librarian, len(libs))
	for _, lib := range libs {
		byName[lib.Name()] = lib
	}
	cands := make([]map[string][]uint32, n)
	for i, q := range queries {
		groups, _, err := central.RankGroups(q.Text, kPrime)
		if err != nil {
			return pr, err
		}
		cands[i] = map[string][]uint32{}
		for _, gd := range central.Expand(groups) {
			name, local, err := ciPool.Federation().ResolveGlobal(gd)
			if err != nil {
				return pr, err
			}
			cands[i][name] = append(cands[i][name], local)
		}
		for _, docs := range cands[i] {
			sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
		}
	}
	pr.scoreDocs = timed(n, func(i int) time.Duration {
		var slowest time.Duration
		for name, docs := range cands[i] {
			t := time.Now()
			_, _ = byName[name].Engine().ScoreDocs(queries[i].Text, docs, weights[i])
			slowest = max(slowest, time.Since(t))
		}
		return slowest
	})

	var answers []core.Answer
	for _, res := range g.results {
		answers = append(answers, res.Answers...)
	}
	if len(answers) > 0 {
		blobs := make([][]byte, len(answers))
		for i, a := range answers {
			blob, err := byName[a.Librarian].Store().FetchCompressed(a.LocalDoc)
			if err != nil {
				return pr, err
			}
			blobs[i] = blob
		}
		pr.fetchDoc = timed(len(answers), func(i int) time.Duration {
			t := time.Now()
			_, _ = byName[answers[i].Librarian].Store().FetchCompressed(answers[i].LocalDoc)
			return time.Since(t)
		})
		pr.decompressDoc = timed(len(answers), func(i int) time.Duration {
			model := byName[answers[i].Librarian].Store().Model()
			t := time.Now()
			_, _ = model.DecompressDoc(blobs[i])
			return time.Since(t)
		})
	}

	cfg := p.costConfig()
	for _, res := range g.results {
		b, err := costmodel.Estimate(cfg, &res.Trace)
		if err != nil {
			return pr, err
		}
		pr.modelRank += b.Rank.Seconds() * 1e3 / float64(n)
		pr.modelFetchOwn += b.Fetch.Seconds() * 1e3 / float64(n)
	}
	pr.modelFetch = pr.modelFetchOwn
	if !p.Fetch {
		pr.modelFetch = 0
		sess := ciPool.Session()
		for _, q := range queries {
			res, err := sess.Query(core.ModeCI, q.Text, p.K, core.Options{Fetch: true, CompressedTransfer: true})
			if err != nil {
				return pr, err
			}
			b, err := costmodel.Estimate(cfg, &res.Trace)
			if err != nil {
				return pr, err
			}
			pr.modelFetch += b.Fetch.Seconds() * 1e3 / float64(n)
		}
	}
	return pr, nil
}

// allocsPer runs fn once to warm up, then again counting heap allocations,
// and returns allocations per operation.
func allocsPer(ops int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(ops, 1))
}

// decodeProbe walks every query term's whole postings list in every
// librarian through Index.Cursor/NextBlock and returns ns per posting.
func decodeProbe(analyzer *textproc.Analyzer, libs []*librarian.Librarian, queries []trecsynth.Query) float64 {
	terms := make([][]string, len(queries))
	for i, q := range queries {
		seen := map[string]bool{}
		for _, t := range analyzer.Terms(nil, q.Text) {
			if !seen[t] {
				seen[t] = true
				terms[i] = append(terms[i], t)
			}
		}
	}
	var cur *index.TermCursor
	var postings int
	var elapsed time.Duration
	for start := time.Now(); postings == 0 || time.Since(start) < probeMin; {
		t := time.Now()
		for i := range queries {
			for _, lib := range libs {
				ix := lib.Engine().Index()
				for _, term := range terms[i] {
					var err error
					if cur == nil {
						cur, err = ix.Cursor(term)
					} else {
						err = ix.ResetCursor(cur, term)
					}
					if err != nil {
						continue
					}
					for blk := cur.NextBlock(); blk != nil; blk = cur.NextBlock() {
						postings += len(blk)
					}
				}
			}
		}
		elapsed += time.Since(t)
		if postings == 0 {
			return 0
		}
	}
	return float64(elapsed) / float64(postings)
}

// replayFrames replays the captured rank- and fetch-phase frames through
// protocol.AppendEncode and protocol.DecodeInto, returning ns per frame for
// each and heap allocations per steady-state decode.
func replayFrames(frames []frame) (enc, dec, decAllocs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, 0, fmt.Errorf("no frames captured")
	}
	msgs := make([]protocol.Message, len(frames))
	dsts := make([]protocol.Message, len(frames))
	for i, fr := range frames {
		raw := binary.LittleEndian.AppendUint32(nil, uint32(len(fr.payload)))
		raw = append(append(raw, byte(fr.typ)), fr.payload...)
		m, _, err := protocol.ReadMessage(bytes.NewReader(raw))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("replay frame %d: %w", i, err)
		}
		msgs[i] = m
		dsts[i] = reflect.New(reflect.TypeOf(m).Elem()).Interface().(protocol.Message)
	}
	var buf []byte
	enc = bulk(len(msgs), func(i int) { buf = protocol.AppendEncode(buf[:0], msgs[i]) })
	dec = bulk(len(msgs), func(i int) { _ = protocol.DecodeInto(dsts[i], frames[i].payload) })
	decAllocs = allocsPer(len(frames), func() {
		for i := range frames {
			_ = protocol.DecodeInto(dsts[i], frames[i].payload)
		}
	})
	return enc, dec, decAllocs, nil
}

// ingestProbe measures the ingest layer for workloads without a writer: a
// one-second open-loop stream of the first subcollection's held-back half
// into a live librarian started with its first half.
func ingestProbe(c *trecsynth.Corpus) (writerResult, int, int, error) {
	sub := c.Subcollections[0]
	up, err := librarian.NewUpdatable(sub.Name, initialDocs(sub.Docs), librarian.BuildOptions{})
	if err != nil {
		return writerResult{}, 0, 0, err
	}
	defer up.Close()
	w := runWriter([]*librarian.UpdatableLibrarian{up}, [][]store.Document{heldBack(sub.Docs)}, ingestProbeRate, ingestProbeBatch, time.Now().Add(time.Second))
	st := up.SegmentStats()
	return w, len(st.Segments), int(st.Merges), nil
}

const (
	ingestProbeRate  = 1000
	ingestProbeBatch = 50
)
