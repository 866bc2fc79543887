package core

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
)

// sameRanking compares two rankings by identity and rank, with scores equal
// to 1e-9 (term weights travel in a map, so librarians sum per-term
// contributions in map-iteration order — the last ULP is not deterministic).
func sameRanking(got, want []Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// countingDialer wraps a dialer and tracks, per librarian, how many dials
// happened and how many of the dialled connections are open right now —
// enough to verify both idle reuse (few dials) and the pool bound (open
// conns never exceed MaxConnsPerLibrarian).
type countingDialer struct {
	inner simnet.Dialer

	mu      sync.Mutex
	dials   map[string]int
	open    map[string]int
	maxOpen map[string]int
}

func newCountingDialer(inner simnet.Dialer) *countingDialer {
	return &countingDialer{
		inner:   inner,
		dials:   make(map[string]int),
		open:    make(map[string]int),
		maxOpen: make(map[string]int),
	}
}

func (d *countingDialer) Dial(name string) (net.Conn, error) {
	conn, err := d.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials[name]++
	d.open[name]++
	if d.open[name] > d.maxOpen[name] {
		d.maxOpen[name] = d.open[name]
	}
	d.mu.Unlock()
	return &countedConn{Conn: conn, dialer: d, name: name}, nil
}

func (d *countingDialer) connClosed(name string) {
	d.mu.Lock()
	d.open[name]--
	d.mu.Unlock()
}

func (d *countingDialer) stats(name string) (dials, open, maxOpen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials[name], d.open[name], d.maxOpen[name]
}

type countedConn struct {
	net.Conn
	dialer *countingDialer
	name   string
	once   sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.dialer.connClosed(c.name) })
	return c.Conn.Close()
}

// poolFixture is newFixture plus a counting dialer and direct pool access.
type poolFixture struct {
	*fixture
	pool    *Pool
	counter *countingDialer
}

func newPoolFixture(t testing.TB, maxConns int) *poolFixture {
	return newWirePoolFixture(t, maxConns, poolWire{})
}

// poolWire is one wire configuration the pool walls run under.
type poolWire struct {
	name     string
	features protocol.Features
	// seedLibs serves the pool from librarians that grant no wire feature.
	seedLibs bool
}

// poolWires are the default pipelined wire, the seed wire pinned by
// FeatureNone, and a mixed fleet: a default pool whose librarians grant
// nothing, so every connection falls back to the seed framing.
var poolWires = []poolWire{
	{name: "pipelined"},
	{name: "seed", features: protocol.FeatureNone},
	{name: "mixed", seedLibs: true},
}

func newWirePoolFixture(t testing.TB, maxConns int, wire poolWire) *poolFixture {
	t.Helper()
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	// The fixture's own receptionist stays as the MS reference path; build a
	// second pool with a counting dialer for the pool assertions.
	var inner simnet.Dialer = f.dialer
	if wire.seedLibs {
		var libs []*librarian.Librarian
		for _, name := range order {
			lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
			if err != nil {
				t.Fatal(err)
			}
			libs = append(libs, lib)
		}
		grantNothing(libs)
		d := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
		t.Cleanup(d.Wait)
		inner = d
	}
	counter := newCountingDialer(inner)
	pool, err := NewPool(counter, order, Config{Analyzer: testAnalyzer(), MaxConnsPerLibrarian: maxConns, WireFeatures: wire.features})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return &poolFixture{fixture: f, pool: pool, counter: counter}
}

// exchange runs one request to the named librarian through the pool's
// exchange path: lease, dial when needed, exchange, release.
func (pf *poolFixture) exchange(name string) error {
	e := &exec{ctx: context.Background(), fed: pf.pool.fed, pool: pf.pool}
	_, _, _, err := e.attempt(e.ctx, name, PhaseSetup, &protocol.VocabRequest{}, "", false, nil)
	return err
}

// TestCVIdenticalToMSConcurrent drives the paper's headline invariant — CV
// rankings identical to MS, score for score — through 8 goroutines sharing
// one Federation via the pool. Run under -race this is the proof that the
// Federation/Session split left no shared mutable per-query state.
func TestCVIdenticalToMSConcurrent(t *testing.T) {
	pf := newPoolFixture(t, 4)
	if _, err := pf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"alpha federal wallstreet",
		"w1 w2 w3",
		"avalanche aurora",
		"widget wholesale w100",
		"fiscal finance w7",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		ms, err := pf.mono.Query(q, 15, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := pf.pool.Session()
			for round := 0; round < rounds; round++ {
				qi := (g + round) % len(queries)
				cv, err := sess.Query(ModeCV, queries[qi], 15, Options{})
				if err != nil {
					errc <- err
					return
				}
				ms := want[qi]
				if len(cv.Answers) != len(ms.Answers) {
					errc <- errConst("CV answer count diverged from MS under concurrency")
					return
				}
				for i := range ms.Answers {
					if cv.Answers[i].Key() != ms.Answers[i].Key() ||
						math.Abs(cv.Answers[i].Score-ms.Answers[i].Score) > 1e-9 {
						errc <- errConst("CV ranking diverged from MS under concurrency")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsAcrossModes runs 9 concurrent sessions over one
// shared Federation, three per mode (CN, CV, CI), and checks every result
// against a single-threaded reference answer for that (mode, query) pair.
func TestConcurrentSessionsAcrossModes(t *testing.T) {
	pf := newPoolFixture(t, 4)
	if _, err := pf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	local, err := BuildGrouped(pf.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.pool.Federation().SetupCentralIndex(local); err != nil {
		t.Fatal(err)
	}

	modes := []Mode{ModeCN, ModeCV, ModeCI}
	queries := []string{"alpha federal", "w1 w2 w3", "wallstreet widget", "aurora fiscal"}
	opts := Options{KPrime: 8}

	type key struct {
		mode Mode
		q    string
	}
	want := make(map[key][]Answer)
	for _, m := range modes {
		for _, q := range queries {
			res, err := pf.pool.Query(m, q, 10, opts)
			if err != nil {
				t.Fatalf("mode %v query %q: %v", m, q, err)
			}
			want[key{m, q}] = res.Answers
		}
	}

	const perMode = 3
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, perMode*len(modes))
	for _, m := range modes {
		for g := 0; g < perMode; g++ {
			wg.Add(1)
			go func(m Mode, g int) {
				defer wg.Done()
				sess := pf.pool.Session()
				for round := 0; round < rounds; round++ {
					q := queries[(g+round)%len(queries)]
					res, err := sess.Query(m, q, 10, opts)
					if err != nil {
						errc <- err
						return
					}
					if !sameRanking(res.Answers, want[key{m, q}]) {
						errc <- errConst("concurrent answers differ from single-threaded reference")
						return
					}
				}
			}(m, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPoolBoundsConnectionsPerLibrarian checks that MaxConnsPerLibrarian
// really bounds concurrency: with a bound of 2 and 12 goroutines querying
// flat out, no librarian ever has more than 2 open connections, yet every
// query completes — on every wire, including the seed framing where each
// connection carries one exchange at a time.
func TestPoolBoundsConnectionsPerLibrarian(t *testing.T) {
	for _, wire := range poolWires {
		t.Run(wire.name, func(t *testing.T) {
			pf := newWirePoolFixture(t, 2, wire)
			if _, err := pf.pool.SetupVocabulary(); err != nil {
				t.Fatal(err)
			}
			const goroutines = 12
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if _, err := pf.pool.Query(ModeCV, "alpha federal wallstreet", 10, Options{}); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			for _, name := range pf.order {
				_, _, maxOpen := pf.counter.stats(name)
				if maxOpen > 2 {
					t.Fatalf("librarian %s had %d concurrent connections, bound is 2", name, maxOpen)
				}
			}
			assertNoLeakedConns(t, pf.pool)
		})
	}
}

// TestPoolReusesIdleConnections checks the whole point of pooling: a long
// sequential run of queries does not redial — the Hello-era connection is
// reused for every exchange.
func TestPoolReusesIdleConnections(t *testing.T) {
	pf := newPoolFixture(t, 4)
	if _, err := pf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := pf.pool.Query(ModeCN, "alpha federal", 5, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range pf.order {
		dials, _, _ := pf.counter.stats(name)
		if dials != 1 {
			t.Fatalf("librarian %s dialled %d times across 25 sequential queries, want 1 (Hello only)", name, dials)
		}
	}
}

// TestPoolAcquireRelease pins the lease cycle through the exchange path, on
// the seed and the default wire: an unknown librarian is rejected, a clean
// exchange reuses its connection, a dirty connection is replaced by exactly
// one fresh dial, and exchanges after Close fail with ErrPoolClosed.
func TestPoolAcquireRelease(t *testing.T) {
	for _, wire := range poolWires[:2] {
		t.Run(wire.name, func(t *testing.T) {
			pf := newWirePoolFixture(t, 2, wire)
			if err := pf.exchange("nope"); !errorsIsUnknownLibrarian(err) {
				t.Fatalf("exchange with unknown librarian: got %v", err)
			}
			if err := pf.exchange("AP"); err != nil {
				t.Fatal(err)
			}
			dialsBefore, _, _ := pf.counter.stats("AP")

			// Clean release → reuse, no new dial.
			if err := pf.exchange("AP"); err != nil {
				t.Fatal(err)
			}
			if dials, _, _ := pf.counter.stats("AP"); dials != dialsBefore {
				t.Fatalf("clean exchange redialled: %d → %d", dialsBefore, dials)
			}

			// Dirty → discard, the next exchange dials fresh.
			rep := pf.pool.routers["AP"].snapshot()[0]
			rep.pipes.mu.Lock()
			conns := append([]*pipeConn(nil), rep.pipes.conns...)
			rep.pipes.mu.Unlock()
			if len(conns) != 1 {
				t.Fatalf("sequential exchanges left %d connections, want 1", len(conns))
			}
			conns[0].fail(errors.New("stream interrupted mid-message"), true)
			if got := pf.pool.metrics.dirtyDiscards.Value(); got != 1 {
				t.Fatalf("dirty discards = %d, want 1", got)
			}
			if err := pf.exchange("AP"); err != nil {
				t.Fatal(err)
			}
			if dials, _, _ := pf.counter.stats("AP"); dials != dialsBefore+1 {
				t.Fatalf("dirty connection not replaced by one fresh dial: %d → %d", dialsBefore, dials)
			}
			assertNoLeakedConns(t, pf.pool)

			pf.pool.Close()
			if err := pf.exchange("AP"); !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("exchange after Close: got %v, want ErrPoolClosed", err)
			}
		})
	}
}

func errorsIsUnknownLibrarian(err error) bool {
	return err != nil && !errors.Is(err, ErrPoolClosed)
}

// TestPoolCloseDuringQueries hammers Close against in-flight queries: 10
// goroutines query in a loop while the main goroutine closes the pool (and
// three more goroutines race duplicate Closes). Nothing may panic, queries
// must cleanly either succeed or fail, and when the dust settles every
// connection must be closed — no leases or idle conns leaked.
func TestPoolCloseDuringQueries(t *testing.T) {
	pf := newPoolFixture(t, 3)
	if _, err := pf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const goroutines = 10
	var started sync.WaitGroup
	var wg sync.WaitGroup
	var successes, failures atomic.Int64
	started.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			started.Done()
			for i := 0; ; i++ {
				_, err := pf.pool.Query(ModeCV, "alpha federal wallstreet", 10, Options{})
				if err != nil {
					failures.Add(1)
					return
				}
				successes.Add(1)
			}
		}(g)
	}
	started.Wait()
	time.Sleep(5 * time.Millisecond) // let some queries land mid-flight
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := pf.pool.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	closers.Wait()
	wg.Wait()
	if failures.Load() != goroutines {
		t.Fatalf("expected every goroutine to observe shutdown, got %d failures", failures.Load())
	}
	// After shutdown no connection may be leaked: no lease or pending
	// exchange outstanding, no connection left in any replica's set, and the
	// dialer agrees nothing is open.
	assertNoLeakedConns(t, pf.pool)
	eachReplica(pf.pool, func(lib string, rep *replica) {
		rep.pipes.mu.Lock()
		n := len(rep.pipes.conns)
		rep.pipes.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s %s kept %d connections after Close", lib, rep.endpoint, n)
		}
	})
	for _, name := range pf.order {
		if _, open, _ := pf.counter.stats(name); open != 0 {
			t.Fatalf("librarian %s still has %d open connections after Close", name, open)
		}
	}
	// Fresh queries fail fast with ErrPoolClosed.
	if _, err := pf.pool.Query(ModeCV, "alpha", 5, Options{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("query after Close: got %v, want ErrPoolClosed", err)
	}
	if err := pf.exchange("AP"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("exchange after Close: got %v, want ErrPoolClosed", err)
	}
	if err := pf.pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSetupSharedAcrossSessions verifies the amortization claim behind the
// pool: setup runs once, and every later session sees its results without
// further setup traffic — the per-librarian dial count stays at one and the
// vocabulary exchange is never repeated.
func TestSetupSharedAcrossSessions(t *testing.T) {
	pf := newPoolFixture(t, 4)
	trace, err := pf.pool.SetupVocabulary()
	if err != nil {
		t.Fatal(err)
	}
	setupTrips := trace.RoundTrips(PhaseSetup)
	if setupTrips != len(pf.order) {
		t.Fatalf("vocabulary setup took %d round trips, want %d", setupTrips, len(pf.order))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := pf.pool.Session()
			res, err := sess.Query(ModeCV, "alpha federal", 10, Options{})
			if err != nil {
				errc <- err
				return
			}
			if res.Trace.RoundTrips(PhaseSetup) != 0 {
				errc <- errConst("a session repeated setup traffic")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	terms, bytes := pf.pool.Federation().VocabularySize()
	if terms == 0 || bytes == 0 {
		t.Fatal("shared federation lost its vocabulary")
	}
}
