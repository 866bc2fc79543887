package main

import (
	"fmt"
	"sort"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/costmodel"
	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// params are one workload's fixed parameters; they are printed in the
// environment header of every run.
type params struct {
	Name  string `json:"name"`
	Mode  string `json:"mode"`
	Query string `json:"query_kind"`
	K     int    `json:"k"`
	// Scale multiplies every subcollection size of trecsynth.DefaultConfig.
	Scale float64 `json:"corpus_scale"`
	// Sessions is the closed-loop query concurrency, and also the pool's
	// MaxConnsPerLibrarian.
	Sessions int `json:"sessions"`
	// WAN shapes each link to its Table 2 round-trip time (one-way RTT/2)
	// at WANBandwidth, with every delay divided by TimeScale.
	WAN          bool    `json:"wan_links"`
	WANBandwidth float64 `json:"wan_bytes_per_s,omitempty"`
	TimeScale    float64 `json:"time_scale,omitempty"`
	// CI parameters: k' groups expanded, group size, and the fetch step.
	KPrime    int  `json:"k_prime,omitempty"`
	GroupSize int  `json:"group_size,omitempty"`
	Fetch     bool `json:"fetch_compressed,omitempty"`
	// Ingest streams the held-back half of every subcollection into its
	// UpdatableLibrarian at IngestRate documents per second, BatchDocs per
	// Ingest+Flush, round-robin over the librarians.
	Ingest     bool    `json:"ingest,omitempty"`
	IngestRate float64 `json:"ingest_docs_per_s,omitempty"`
	BatchDocs  int     `json:"batch_docs,omitempty"`
	// SetupReps is how many times the fleet is set up; setup_s is the
	// median.
	SetupReps int `json:"setup_reps"`
	// Slices splits the timed phase; qps and cpu_us_per_query are the
	// median over slices.
	Slices int `json:"slices"`
	// Shrink scales the query sets and vocabulary down with the corpus;
	// only the smoke test sets it.
	Shrink bool `json:"shrink,omitempty"`
}

var workloads = []params{
	{Name: "cv-short", Mode: "CV", Query: "short", K: 10, Scale: 0.1, Sessions: 2, SetupReps: 3, Slices: 10},
	{Name: "cv-long", Mode: "CV", Query: "long", K: 100, Scale: 1, Sessions: 2, SetupReps: 3, Slices: 10},
	{Name: "ci-wan", Mode: "CI", Query: "short", K: 20, Scale: 1, Sessions: 2, SetupReps: 3, Slices: 10,
		WAN: true, WANBandwidth: 64 << 10, TimeScale: 100, KPrime: 100, GroupSize: 10, Fetch: true},
	{Name: "cn-ingest", Mode: "CN", Query: "short", K: 10, Scale: 1, Sessions: 2, SetupReps: 3, Slices: 10,
		Ingest: true, IngestRate: 250, BatchDocs: 50},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func workloadParams(name string) (params, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return params{}, false
}

func (p params) mode() core.Mode {
	switch p.Mode {
	case "CN":
		return core.ModeCN
	case "CI":
		return core.ModeCI
	default:
		return core.ModeCV
	}
}

func (p params) options() core.Options {
	return core.Options{KPrime: p.KPrime, Fetch: p.Fetch, CompressedTransfer: p.Fetch}
}

// generate builds the workload's corpus from the seed. It is not part of
// set-up time.
func generate(p params, seed int64) (*trecsynth.Corpus, error) {
	cfg := trecsynth.DefaultConfig()
	cfg.Seed = seed
	for i := range cfg.Subs {
		cfg.Subs[i].NumDocs = max(4, int(float64(cfg.Subs[i].NumDocs)*p.Scale))
	}
	if p.Shrink {
		cfg.VocabSize = 2000
		cfg.NumTopics = 8
		cfg.NumShortQueries = 12
		cfg.NumLongQueries = 6
		cfg.LongQueryLen = 30
	}
	return trecsynth.Generate(cfg)
}

func (p params) queries(c *trecsynth.Corpus) []trecsynth.Query {
	kind := trecsynth.ShortQuery
	if p.Query == "long" {
		kind = trecsynth.LongQuery
	}
	return c.QueriesOf(kind)
}

// link is the simulated link to one librarian.
func (p params) link(name string) simnet.LinkConfig {
	if !p.WAN {
		return simnet.LinkConfig{}
	}
	return simnet.LinkConfig{Latency: costmodel.WANSites[name] / 2, Bandwidth: p.WANBandwidth, TimeScale: p.TimeScale}
}

// costConfig is the cost model the traced run compares against: WAN with
// its links scaled exactly as the simulated ones are (one exchange costs
// one round trip plus transmission), LAN otherwise.
func (p params) costConfig() costmodel.Config {
	if !p.WAN {
		return costmodel.LAN()
	}
	cfg := costmodel.WAN()
	for name, l := range cfg.Links {
		l.RTT = time.Duration(float64(l.RTT) / p.TimeScale)
		l.Bandwidth = p.WANBandwidth * p.TimeScale
		l.RTTsPerCall = 1
		cfg.Links[name] = l
	}
	return cfg
}

// fleet is one set-up deployment: librarians, the dialer wiring them to the
// receptionist, and the pool with the workload's Setup* exchanges done.
type fleet struct {
	p      params
	names  []string
	libs   []*librarian.Librarian          // static librarians
	ups    []*librarian.UpdatableLibrarian // cn-ingest's live librarians
	dialer *librarian.InProcessDialer
	pool   *core.Pool
	// wire counts the bytes crossing the pool's connections while switched
	// on: during set-up, and during the gate pass.
	wire       *countingDialer
	setupBytes int64

	// Phase times of this set-up, reported by the traced run.
	build time.Duration
	times setupTimes
}

// setupTimes are the durations of the Setup* exchanges a pool ran.
type setupTimes struct{ vocab, models, central time.Duration }

// buildFleet sets up a fleet over the corpus: every subcollection (or, for
// ingest, its first half) becomes a librarian, wired over the workload's
// links to a pool with MaxConnsPerLibrarian = sessions.
func buildFleet(p params, c *trecsynth.Corpus) (*fleet, error) {
	f := &fleet{p: p, dialer: librarian.NewInProcessDialer(nil, simnet.LinkConfig{})}
	start := time.Now()
	for _, sub := range c.Subcollections {
		f.names = append(f.names, sub.Name)
		if p.Ingest {
			up, err := librarian.NewUpdatable(sub.Name, initialDocs(sub.Docs), librarian.BuildOptions{})
			if err != nil {
				f.close()
				return nil, err
			}
			f.ups = append(f.ups, up)
			f.dialer.AddEndpoint(sub.Name, up, p.link(sub.Name))
			continue
		}
		lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.libs = append(f.libs, lib)
		f.dialer.AddEndpoint(sub.Name, lib, p.link(sub.Name))
	}
	f.build = time.Since(start)

	f.wire = &countingDialer{inner: f.dialer}
	f.wire.on.Store(true)
	pool, err := core.NewPool(f.wire, f.names, core.Config{MaxConnsPerLibrarian: p.Sessions})
	if err != nil {
		f.close()
		return nil, err
	}
	f.pool = pool
	if f.times, err = setupPool(pool, p.mode(), p.GroupSize); err != nil {
		f.close()
		return nil, err
	}
	f.wire.on.Store(false)
	f.setupBytes = f.wire.bytes.Swap(0) + f.wire.handshake.Swap(0)
	return f, nil
}

// setupPool runs the Setup* exchanges a mode needs on a pool, timing each:
// none for CN, the vocabulary for CV, and vocabulary, models and the
// remotely pulled central index for CI.
func setupPool(pool *core.Pool, mode core.Mode, groupSize int) (setupTimes, error) {
	var st setupTimes
	if mode == core.ModeCN {
		return st, nil
	}
	t := time.Now()
	if _, err := pool.SetupVocabulary(); err != nil {
		return st, fmt.Errorf("setup vocabulary: %w", err)
	}
	st.vocab = time.Since(t)
	if mode != core.ModeCI {
		return st, nil
	}
	t = time.Now()
	if _, err := pool.SetupModels(); err != nil {
		return st, fmt.Errorf("setup models: %w", err)
	}
	st.models = time.Since(t)
	t = time.Now()
	if _, err := pool.SetupCentralIndexRemote(groupSize); err != nil {
		return st, fmt.Errorf("setup central index: %w", err)
	}
	st.central = time.Since(t)
	return st, nil
}

// initialDocs is the part of a subcollection an ingest librarian starts
// with; heldBack is the rest, streamed during the run.
func initialDocs(docs []store.Document) []store.Document { return docs[:len(docs)/2] }
func heldBack(docs []store.Document) []store.Document    { return docs[len(docs)/2:] }

// close stops the pool, waits for every serving goroutine and closes the
// live librarians.
func (f *fleet) close() {
	if f.pool != nil {
		f.pool.Close()
	}
	f.dialer.Wait()
	for _, up := range f.ups {
		up.Close()
	}
}

// servers returns the fleet's librarians as stream servers, in name order.
func (f *fleet) servers() []librarian.ConnServer {
	out := make([]librarian.ConnServer, 0, len(f.names))
	for _, l := range f.libs {
		out = append(out, l)
	}
	for _, u := range f.ups {
		out = append(out, u)
	}
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of durations, in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999999) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}
