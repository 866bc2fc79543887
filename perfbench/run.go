package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// gatePass is the one untimed pass over the query set that every run makes
// before timing: it checks the answers, fixes what the timed phase must
// reproduce, and supplies the deterministic counters.
type gatePass struct {
	expected [][]core.Answer // per query; nil when answers move (cn-ingest)
	withText bool
	results  []*core.Result
	failed   int
	mallocs  uint64 // heap allocations over the pass
	allocB   uint64 // heap bytes allocated over the pass
	// wireBytes is every byte the pass moved, counted at the receptionist's
	// connections. Trace.BytesTransferred is not used: a pipelined exchange
	// whose reply overtakes the writer goroutine's bookkeeping records
	// ReqBytes as 0, so the trace's byte count varies from run to run.
	wireBytes int64
}

// check validates one timed answer against the gate pass.
func (g *gatePass) check(qi int, res *core.Result) bool {
	return sameAnswers(res.Answers, g.expected[qi], g.withText)
}

// run executes one benchmark run of a workload.
func run(p params, rc runConfig) (*result, error) {
	dur := time.Duration(rc.Seconds * float64(time.Second))
	c, err := generate(p, rc.Seed)
	if err != nil {
		return nil, err
	}
	queries := p.queries(c)
	if p.Ingest {
		if need, have := streamBatches(p, heldBackStreams(c), dur); have < need {
			return nil, fmt.Errorf("%s: the held-back documents make %d batches, a %v stream needs %d", p.Name, have, dur, need)
		}
	}

	// Set-up: librarian builds, NewPool and the workload's Setup* exchanges,
	// timed from generated documents in memory to a pool ready to serve.
	reps := p.SetupReps
	if rc.Trace {
		reps = 1
	}
	var f *fleet
	var setups []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		t := time.Now()
		if f, err = buildFleet(p, c); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer f.close()
	heapMB := heapInuseMB()

	g, err := runGatePass(f, c, queries, rc.corrupt)
	if err != nil {
		return nil, err
	}
	flags := checkCounters(p, rc, g)

	if rc.Trace {
		return tracedRun(p, rc, c, f, g, flags)
	}

	// The timed phase.
	var check func(int, *core.Result) bool
	if g.expected != nil {
		check = g.check
	}
	wait := startWriter(p, f, c, dur)
	lr := closedLoop(f.pool, p, queries, check, dur)
	w := wait()

	attempted := len(queries) + lr.attempted + w.batches
	failed := g.failed + lr.failed + w.failed + flags
	if p.Ingest {
		_, bad, err := rebuildGate(f, sentDocs(c, w), queries, rc.corrupt == "cn")
		if err != nil {
			return nil, err
		}
		attempted += len(queries)
		failed += bad
		fmt.Fprintf(rc.Log, "%s seed %d: %d of %d probe queries differ from the rebuilt fleet\n", p.Name, rc.Seed, bad, len(queries))
		for _, up := range f.ups {
			st := up.SegmentStats()
			fmt.Fprintf(rc.Log, "  %s: %d docs in %d segments after %d merges\n", up.Name(), st.TotalDocs, len(st.Segments), st.Merges)
		}
	}
	fmt.Fprintf(rc.Log, "%s seed %d: %d queries in %v; failed: %d gate pass, %d timed queries, %d ingest batches, %d counters; setup %.3fs (reps %v)\n",
		p.Name, rc.Seed, lr.attempted, dur, g.failed, lr.failed, w.failed, flags, median(setups), setups)
	if len(lr.lat) == 0 {
		return nil, fmt.Errorf("%s: no query completed", p.Name)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"qps":              {median(lr.sliceQPS), "1/s"},
			"latency_p50_ms":   {percentile(lr.lat, 0.50), "ms"},
			"latency_p99_ms":   {percentile(lr.lat, 0.99), "ms"},
			"cpu_us_per_query": {median(lr.sliceCPU), "us"},
			"setup_s":          {median(setups), "s"},
			"heap_mb":          {heapMB, "MB"},
		},
	}, nil
}

// runGatePass makes the untimed pass: each query exactly once on one
// session. CV answers must equal an MS MonoServer's bit for bit; CI's
// fetched documents must decompress to their generated text, and the pass's
// answers become what every timed CI query must repeat.
func runGatePass(f *fleet, c *trecsynth.Corpus, queries []trecsynth.Query, corrupt string) (*gatePass, error) {
	p := f.p
	g := &gatePass{results: make([]*core.Result, len(queries))}
	if p.mode() == core.ModeCV {
		ms, err := monoAnswers(c, queries, p.K)
		if err != nil {
			return nil, err
		}
		if corrupt == "cv" && len(ms[0]) > 0 {
			ms[0][0].Score *= 1 + 1e-12
		}
		g.expected = ms
	}
	sess := f.pool.Session()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f.wire.on.Store(true)
	for i, q := range queries {
		res, err := sess.Query(p.mode(), q.Text, p.K, p.options())
		if err != nil {
			return nil, fmt.Errorf("gate pass %s: %w", q.ID, err)
		}
		g.results[i] = res
	}
	f.wire.on.Store(false)
	g.wireBytes = f.wire.bytes.Swap(0)
	runtime.ReadMemStats(&after)
	g.mallocs = after.Mallocs - before.Mallocs
	g.allocB = after.TotalAlloc - before.TotalAlloc

	switch p.mode() {
	case core.ModeCV:
		for i, res := range g.results {
			if !g.check(i, res) {
				g.failed++
			}
		}
	case core.ModeCI:
		g.withText = true
		g.expected = make([][]core.Answer, len(queries))
		for i, res := range g.results {
			g.expected[i] = append([]core.Answer(nil), res.Answers...)
			if corrupt == "ci-text" && i == 0 && len(g.expected[i]) > 0 {
				g.expected[i][0].Text += " "
			}
			if textMismatches(c, g.expected[i]) > 0 {
				g.failed++
			}
		}
		if corrupt == "ci-repeat" && len(g.expected[0]) > 0 {
			g.expected[0][0].Score *= 1 + 1e-12
		}
	}
	return g, nil
}

// counters are the deterministic per-pass totals of the gate pass. Every
// field but the allocation counts must repeat exactly between two runs of
// one seed; allocations may drift by allocTolerance.
type counters struct {
	Queries         int    `json:"queries"`
	RoundTrips      int    `json:"round_trips"`
	Bytes           int64  `json:"bytes"`
	PostingsDecoded uint64 `json:"postings_decoded"`
	Candidates      int    `json:"candidates_scored"`
	IndexBytes      uint64 `json:"index_bytes"`
	DocBytes        int    `json:"doc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
}

const allocTolerance = 0.05

func (g *gatePass) counters() counters {
	c := counters{Queries: len(g.results), Bytes: g.wireBytes, Mallocs: g.mallocs}
	for _, res := range g.results {
		t := &res.Trace
		c.RoundTrips += t.RoundTrips(0)
		w := t.LibrarianWork()
		c.PostingsDecoded += w.PostingsDecoded
		c.Candidates += w.CandidateDocs
		c.IndexBytes += w.IndexBytesRead
		for _, call := range t.Calls {
			c.DocBytes += call.DocBytes
		}
	}
	return c
}

// checkCounters compares this run's deterministic counters with the record
// left by an earlier run of the same binary, workload and seed, and records
// them when there is none. It returns the number of counters that differ
// (each is reported on the log).
func checkCounters(p params, rc runConfig, g *gatePass) int {
	if rc.StateDir == "" {
		return 0
	}
	bin, err := binaryHash()
	if err != nil {
		return 0
	}
	path := filepath.Join(rc.StateDir, fmt.Sprintf("counters-%s-seed%d-%s.json", p.Name, rc.Seed, bin))
	cur := g.counters()
	data, err := os.ReadFile(path)
	if err != nil {
		if err := os.MkdirAll(rc.StateDir, 0o755); err == nil {
			if out, err := json.Marshal(cur); err == nil {
				_ = os.WriteFile(path, out, 0o644)
			}
		}
		return 0
	}
	var prev counters
	if err := json.Unmarshal(data, &prev); err != nil {
		return 0
	}
	bad := 0
	flag := func(name string, differs bool, a, b any) {
		if differs {
			bad++
			fmt.Fprintf(rc.Log, "FLAG %s seed %d: counter %s changed between runs: %v then %v\n", p.Name, rc.Seed, name, a, b)
		}
	}
	exact := prev
	exact.Mallocs = cur.Mallocs
	flag("deterministic counters", exact != cur, prev, cur)
	drift := float64(cur.Mallocs)/float64(max(prev.Mallocs, 1)) - 1
	flag("mallocs", drift > allocTolerance || drift < -allocTolerance, prev.Mallocs, cur.Mallocs)
	return bad
}

// heapInuseMB is HeapInuse after a forced collection, in MB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

func heldBackStreams(c *trecsynth.Corpus) [][]store.Document {
	out := make([][]store.Document, len(c.Subcollections))
	for i, sub := range c.Subcollections {
		out[i] = heldBack(sub.Docs)
	}
	return out
}

// sentDocs is, per librarian, every document a live librarian holds after
// the stream: its initial half followed by the batches it accepted.
func sentDocs(c *trecsynth.Corpus, w writerResult) [][]store.Document {
	out := make([][]store.Document, len(c.Subcollections))
	for i, sub := range c.Subcollections {
		out[i] = append(append([]store.Document(nil), initialDocs(sub.Docs)...), w.sent[i]...)
	}
	return out
}
