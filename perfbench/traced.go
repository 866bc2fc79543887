package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
	"teraphim/internal/trecsynth"
)

// querySpan is one traced query: the root span every wire event in its
// window belongs to (traced queries run one at a time).
type querySpan struct {
	start, end time.Time
	trace      core.Trace
}

// decomposition is the traced pass split at the wire taps, as sums over
// queries (µs) and exchanges.
type decomposition struct {
	queries int
	total   float64 // query spans
	analyze float64 // Trace.Stages
	ship    float64
	wait    float64
	merge   float64
	self    float64 // query span minus, per phase, its slowest exchange
	// Per phase (rankPhase, fetchPhase), the slowest exchange split into
	// librarian service time and the time outside the librarian.
	critSvc   [2]float64
	critNet   [2]float64
	exchanges int
	service   float64 // over every exchange
	net       float64
}

// isQueryExchange reports whether a request type belongs to the rank or
// fetch phase (Hello and the Setup* exchanges do not).
func isQueryExchange(t protocol.MsgType) bool {
	return t == protocol.TypeRankQuery || t == protocol.TypeScoreDocs || t == protocol.TypeFetchDocs
}

const (
	rankPhase  = 0
	fetchPhase = 1
)

type libTag struct {
	lib string
	tag uint32
}

// span is one line of the span dump.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// decompose attributes wire events to the query whose window holds them,
// pairs each receptionist-side exchange with its librarian-side service by
// (librarian, tag), and returns the sums plus the span list.
func decompose(qs []querySpan, rec *recorder, origin time.Time) (decomposition, []span) {
	rec.mu.Lock()
	ex := append([]wireEvent(nil), rec.exchanges...)
	sv := append([]wireEvent(nil), rec.services...)
	rec.mu.Unlock()
	sort.Slice(ex, func(i, j int) bool { return ex[i].start.Before(ex[j].start) })
	sort.Slice(sv, func(i, j int) bool { return sv[i].start.Before(sv[j].start) })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ns := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }

	var d decomposition
	var spans []span
	i, j := 0, 0
	for qn, q := range qs {
		for i < len(ex) && ex[i].start.Before(q.start) {
			i++
		}
		for j < len(sv) && sv[j].start.Before(q.start) {
			j++
		}
		svc := map[libTag]wireEvent{}
		for ; j < len(sv) && sv[j].start.Before(q.end); j++ {
			svc[libTag{sv[j].lib, sv[j].tag}] = sv[j]
		}
		root := len(spans)
		spans = append(spans, span{ID: root, Parent: -1, Query: qn, Name: "query", Start: ns(q.start), End: ns(q.end)})
		var slowest [2]struct{ dur, svc time.Duration }
		for ; i < len(ex) && ex[i].start.Before(q.end); i++ {
			e := ex[i]
			if !isQueryExchange(e.typ) {
				continue
			}
			id := len(spans)
			spans = append(spans, span{ID: id, Parent: root, Query: qn, Name: "exchange:" + e.lib, Start: ns(e.start), End: ns(e.end)})
			var s time.Duration
			if se, ok := svc[libTag{e.lib, e.tag}]; ok {
				s = se.dur()
				spans = append(spans, span{ID: len(spans), Parent: id, Query: qn, Name: "service:" + e.lib, Start: ns(se.start), End: ns(se.end)})
			}
			d.exchanges++
			d.service += us(s)
			d.net += us(e.dur() - s)
			ph := rankPhase
			if e.typ == protocol.TypeFetchDocs {
				ph = fetchPhase
			}
			if e.dur() > slowest[ph].dur {
				slowest[ph].dur, slowest[ph].svc = e.dur(), s
			}
		}
		total := q.end.Sub(q.start)
		self := total
		for ph, c := range slowest {
			self -= c.dur
			d.critSvc[ph] += us(c.svc)
			d.critNet[ph] += us(c.dur - c.svc)
		}
		st := q.trace.Stages
		d.queries++
		d.total += us(total)
		d.self += us(self)
		d.analyze += us(st.Analyze)
		d.ship += us(st.Ship)
		d.wait += us(st.Wait)
		d.merge += us(st.Merge)
	}
	return d, spans
}

// gcCPUSeconds returns the process's GC CPU time and total CPU time so far,
// as the runtime estimates them.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedRun is the --trace 1 run. Over the same fleet it alternates, query
// by query, between the untraced pool and a second pool whose connections
// are tapped at both ends, for the run's length; then it times direct calls
// into each layer on the workload's own corpus and queries.
func tracedRun(p params, rc runConfig, c *trecsynth.Corpus, f *fleet, g *gatePass, flags int) (*result, error) {
	dur := time.Duration(rc.Seconds * float64(time.Second))
	queries := p.queries(c)
	rec := &recorder{}
	tdialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	for _, srv := range f.servers() {
		tdialer.AddEndpoint(srv.Name(), &tappedServer{ConnServer: srv, rec: rec}, p.link(srv.Name()))
	}
	tpool, err := core.NewPool(&tapDialer{inner: tdialer, rec: rec}, f.names, core.Config{MaxConnsPerLibrarian: p.Sessions})
	if err != nil {
		return nil, err
	}
	defer func() {
		tpool.Close()
		tdialer.Wait()
	}()
	if _, err := setupPool(tpool, p.mode(), p.GroupSize); err != nil {
		return nil, err
	}

	wait := startWriter(p, f, c, dur)
	plain, traced := f.pool.Session(), tpool.Session()
	var plainLat, tracedLat []time.Duration
	var qs []querySpan
	attempted, failed := len(queries), g.failed+flags
	origin := time.Now()
	gc0, cpu0 := gcCPUSeconds()
	for i := 0; time.Since(origin) < dur; i++ {
		qi := (i / 2) % len(queries)
		sess := plain
		if i%2 == 1 {
			sess = traced
		}
		start := time.Now()
		res, err := sess.Query(p.mode(), queries[qi].Text, p.K, p.options())
		end := time.Now()
		attempted++
		if err != nil || (g.expected != nil && !g.check(qi, res)) {
			failed++
			continue
		}
		if i%2 == 0 {
			plainLat = append(plainLat, end.Sub(start))
		} else {
			tracedLat = append(tracedLat, end.Sub(start))
			qs = append(qs, querySpan{start: start, end: end, trace: res.Trace})
		}
	}
	gc1, cpu1 := gcCPUSeconds()
	w := wait()
	attempted += w.batches
	failed += w.failed

	// Static librarians for the direct probes: the fleet's own, or for
	// cn-ingest the rebuild the multi-segment ≡ rebuild gate makes.
	libs := f.libs
	var segments, merges int
	if p.Ingest {
		for _, up := range f.ups {
			st := up.SegmentStats()
			segments += len(st.Segments)
			merges += int(st.Merges)
		}
		rebuilt, bad, err := rebuildGate(f, sentDocs(c, w), queries, rc.corrupt == "cn")
		if err != nil {
			return nil, err
		}
		attempted += len(queries)
		failed += bad
		libs = rebuilt
	}

	d, spans := decompose(qs, rec, origin)
	if d.queries == 0 {
		return nil, fmt.Errorf("%s: no traced query completed", p.Name)
	}
	pr, err := runProbes(p, c, f, libs, g, queries)
	if err != nil {
		return nil, err
	}
	if !p.Ingest {
		// Workloads without a writer measure the ingest layer with a short
		// side stream into one live librarian over their own documents.
		if w, segments, merges, err = ingestProbe(c); err != nil {
			return nil, err
		}
	}
	rec.mu.Lock()
	frames := rec.frames
	rec.mu.Unlock()
	enc, dec, decAllocs, err := replayFrames(frames)
	if err != nil {
		return nil, err
	}
	ctr := g.counters()
	n := float64(ctr.Queries)
	q := float64(d.queries)
	ex := float64(max(d.exchanges, 1))
	p50Plain, p50Traced := percentile(plainLat, 0.5), percentile(tracedLat, 0.5)
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	ms := func(dd []time.Duration) float64 { return meanDur(dd) / 1e3 }

	m := map[string]metric{
		"textproc.analyze_us":                {pr.analyze, "us"},
		"core.analyze_us":                    {d.analyze / q, "us"},
		"core.ship_us":                       {d.ship / q, "us"},
		"core.wait_us":                       {d.wait / q, "us"},
		"core.merge_us":                      {d.merge / q, "us"},
		"core.self_us":                       {d.self / q, "us"},
		"core.global_weights_us":             {pr.globalWeights, "us"},
		"core.group_rank_us":                 {pr.groupRank, "us"},
		"core.setup_vocab_ms":                {pr.setup.vocab.Seconds() * 1e3, "ms"},
		"core.setup_models_ms":               {pr.setup.models.Seconds() * 1e3, "ms"},
		"core.setup_central_index_ms":        {pr.setup.central.Seconds() * 1e3, "ms"},
		"protocol.setup_bytes":               {float64(f.setupBytes), "bytes"},
		"librarian.build_s":                  {f.build.Seconds(), "s"},
		"protocol.round_trips_per_query":     {float64(ctr.RoundTrips) / n, "count"},
		"protocol.bytes_per_query":           {float64(ctr.Bytes) / n, "bytes"},
		"protocol.encode_ns_per_frame":       {enc, "ns"},
		"protocol.decode_ns_per_frame":       {dec, "ns"},
		"protocol.decode_allocs_per_frame":   {decAllocs, "count"},
		"simnet.net_us":                      {d.net / ex, "us"},
		"librarian.service_us":               {d.service / ex, "us"},
		"librarian.segments_live":            {float64(segments), "count"},
		"librarian.merges":                   {float64(merges), "count"},
		"librarian.flush_ms":                 {ms(w.flush), "ms"},
		"librarian.ingest_call_us":           {meanDur(w.ingestCall), "us"},
		"librarian.writer_late_ms":           {ms(w.late), "ms"},
		"visible_p50_ms":                     {percentile(w.visible, 0.5), "ms"},
		"visible_p90_ms":                     {percentile(w.visible, 0.9), "ms"},
		"search.rank_us":                     {pr.rank, "us"},
		"search.rank_allocs":                 {pr.rankAllocs, "count"},
		"search.score_docs_us":               {pr.scoreDocs, "us"},
		"search.postings_decoded_per_query":  {float64(ctr.PostingsDecoded) / n, "count"},
		"search.candidates_scored_per_query": {float64(ctr.Candidates) / n, "count"},
		"search.index_bytes_per_query":       {float64(ctr.IndexBytes) / n, "bytes"},
		"index.decode_ns_per_posting":        {pr.decodePosting, "ns"},
		"store.fetch_us_per_doc":             {pr.fetchDoc, "us"},
		"huffman.decompress_us_per_doc":      {pr.decompressDoc, "us"},
		"store.doc_bytes_per_query":          {float64(ctr.DocBytes) / n, "bytes"},
		"costmodel.rank_ms":                  {pr.modelRank, "ms"},
		"costmodel.fetch_ms":                 {pr.modelFetch, "ms"},
		"runtime.allocs_per_query":           {float64(g.mallocs) / n, "count"},
		"runtime.alloc_bytes_per_query":      {float64(g.allocB) / n, "bytes"},
		"runtime.gc_cpu_fraction":            {gcFrac, "fraction"},
		"trace.latency_p50_ms":               {p50Traced, "ms"},
		"trace.untraced_latency_p50_ms":      {p50Plain, "ms"},
		"trace.overhead_frac":                {p50Traced/p50Plain - 1, "fraction"},
	}
	writeBreakdown(rc.Log, p, rc.Seed, d, pr, p50Plain, p50Traced)
	if err := dumpSpans(rc, p, spans); err != nil {
		fmt.Fprintln(rc.Log, "perfbench: span dump:", err)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// meanDur is the mean of durations in µs.
func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / float64(time.Microsecond)
}

// writeBreakdown prints the traced run's per-query decomposition as a
// markdown table: receptionist self time, librarian service and network
// time on the critical path, the unexplained remainder, and the cost
// model's prediction beside the stage it models.
func writeBreakdown(w io.Writer, p params, seed int64, d decomposition, pr probes, p50Plain, p50Traced float64) {
	q := float64(d.queries)
	row := func(name string, v float64, model string) {
		fmt.Fprintf(w, "| %s | %.1f | %s |\n", name, v, model)
	}
	fmt.Fprintf(w, "\n%s, seed %d: %d traced queries; untraced p50 %.1f µs, traced p50 %.1f µs\n\n", p.Name, seed, d.queries, p50Plain*1e3, p50Traced*1e3)
	fmt.Fprintln(w, "| layer (µs per query, traced mean) | measured | costmodel |")
	fmt.Fprintln(w, "|---|---:|---:|")
	row("query span", d.total/q, fmt.Sprintf("%.1f", (pr.modelRank+pr.modelFetchOwn)*1e3))
	for ph, name := range []string{"rank", "fetch"} {
		if d.critSvc[ph]+d.critNet[ph] == 0 {
			continue
		}
		model := pr.modelRank
		if ph == fetchPhase {
			model = pr.modelFetchOwn
		}
		row(name+" phase, slowest exchange", (d.critSvc[ph]+d.critNet[ph])/q, fmt.Sprintf("%.1f", model*1e3))
		row("  librarian service", d.critSvc[ph]/q, "")
		row("  network and framing", d.critNet[ph]/q, "")
	}
	row("receptionist self (span − slowest exchanges)", d.self/q, "")
	row("  core.analyze (Trace.Stages)", d.analyze/q, "")
	row("  core.merge (Trace.Stages)", d.merge/q, "")
	row("  unexplained remainder", (d.self-d.analyze-d.merge)/q, "")
	row("direct: textproc.Analyzer.Terms", pr.analyze, "")
	row("direct: Federation.GlobalWeights", pr.globalWeights, "")
	row("direct: Engine.Rank, slowest librarian", pr.rank, "")
	fmt.Fprintln(w)
}

// dumpSpans writes the environment header and then the traced pass's spans,
// one JSON object a line.
func dumpSpans(rc runConfig, p params, spans []span) error {
	if rc.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(rc.StateDir, 0o755); err != nil {
		return err
	}
	fh, err := os.Create(filepath.Join(rc.StateDir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.Name, rc.Seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header(p, rc)); err != nil {
		fh.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// binaryHash identifies the running binary, so counter records from another
// build are never compared with this one's.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	fh, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	h := sha256.New()
	if _, err := io.Copy(h, fh); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
