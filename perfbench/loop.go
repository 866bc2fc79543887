package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/librarian"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// loopResult is what a closed-loop query phase measured.
type loopResult struct {
	lat       []time.Duration // per completed query, Session.Query call to return
	attempted int
	failed    int // errors plus answers the check rejected
	sliceQPS  []float64
	sliceCPU  []float64 // process CPU µs per query completed, per slice
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop runs sessions closed-loop clients for dur: each sends its next
// query as soon as the previous one returns, cycling through the query set
// from its own offset. check, when non-nil, validates each answer (false
// counts the query as failed). The phase is split into slices, and the
// process CPU time and completions are sampled at each slice boundary.
func closedLoop(pool *core.Pool, p params, queries []trecsynth.Query, check func(qi int, res *core.Result) bool, dur time.Duration) loopResult {
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	type sessionOut struct {
		lat               []time.Duration
		attempted, failed int
	}
	outs := make([]sessionOut, p.Sessions)
	var wg sync.WaitGroup
	for s := 0; s < p.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := pool.Session()
			out := &outs[s]
			out.lat = make([]time.Duration, 0, 4096)
			qi := s * len(queries) / p.Sessions
			for time.Now().Before(deadline) {
				q := queries[qi%len(queries)]
				t := time.Now()
				res, err := sess.Query(p.mode(), q.Text, p.K, p.options())
				d := time.Since(t)
				out.attempted++
				if err != nil || (check != nil && !check(qi%len(queries), res)) {
					out.failed++
				} else {
					out.lat = append(out.lat, d)
				}
				done.Add(1)
				qi++
			}
		}(s)
	}

	var r loopResult
	slice := dur / time.Duration(p.Slices)
	prevDone, prevCPU, prevT := int64(0), cpuTime(), start
	for i := 1; i <= p.Slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		n, c, t := done.Load(), cpuTime(), time.Now()
		if q := n - prevDone; q > 0 {
			r.sliceQPS = append(r.sliceQPS, float64(q)/t.Sub(prevT).Seconds())
			r.sliceCPU = append(r.sliceCPU, float64(c-prevCPU)/float64(time.Microsecond)/float64(q))
		}
		prevDone, prevCPU, prevT = n, c, t
	}
	wg.Wait()
	for _, o := range outs {
		r.lat = append(r.lat, o.lat...)
		r.attempted += o.attempted
		r.failed += o.failed
	}
	return r
}

// writerResult is what the open-loop ingest writer measured.
type writerResult struct {
	batches, failed int
	visible         []time.Duration // scheduled send until Flush returned
	late            []time.Duration // how late each batch was sent
	ingestCall      []time.Duration // Ingest call duration
	flush           []time.Duration // Flush call duration
	// sent holds, per librarian, the documents it accepted, in order.
	sent [][]store.Document
}

// runWriter streams batches of the held-back documents into the live
// librarians round-robin, skipping a librarian whose stream has no full
// batch left, open loop: batch i is due at start + i·interval whatever
// happened to earlier batches, and is timed from when it was due. It stops
// at the first due time at or past until, or when every stream has run dry
// (which the caller rules out with streamBatches).
func runWriter(ups []*librarian.UpdatableLibrarian, streams [][]store.Document, rate float64, batchDocs int, until time.Time) writerResult {
	ctx := context.Background()
	w := writerResult{sent: make([][]store.Document, len(ups))}
	next := make([]int, len(ups))
	interval := time.Duration(float64(batchDocs) / rate * float64(time.Second))
	start := time.Now()
	li := len(ups) - 1
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return w
		}
		found := false
		for range ups {
			li = (li + 1) % len(ups)
			if next[li]+batchDocs <= len(streams[li]) {
				found = true
				break
			}
		}
		if !found {
			return w
		}
		batch := streams[li][next[li] : next[li]+batchDocs]
		next[li] += batchDocs
		time.Sleep(time.Until(due))
		sent := time.Now()
		w.late = append(w.late, sent.Sub(due))
		w.batches++
		err := ups[li].Ingest(ctx, batch)
		w.ingestCall = append(w.ingestCall, time.Since(sent))
		if err == nil {
			t := time.Now()
			err = ups[li].Flush(ctx)
			w.flush = append(w.flush, time.Since(t))
		}
		if err != nil {
			w.failed++
			continue
		}
		w.visible = append(w.visible, time.Since(due))
		w.sent[li] = append(w.sent[li], batch...)
	}
}

// startWriter starts the workload's open-loop writer for dur, when it has
// one; the returned function waits for the writer and returns what it
// measured (nothing for workloads without ingest).
func startWriter(p params, f *fleet, c *trecsynth.Corpus, dur time.Duration) func() writerResult {
	done := make(chan writerResult, 1)
	if !p.Ingest {
		done <- writerResult{}
	} else {
		go func() {
			done <- runWriter(f.ups, heldBackStreams(c), p.IngestRate, p.BatchDocs, time.Now().Add(dur))
		}()
	}
	return func() writerResult { return <-done }
}

// streamBatches is how many batches the writer sends in a run of the given
// length, and how many full batches the held-back streams hold.
func streamBatches(p params, streams [][]store.Document, dur time.Duration) (need, have int) {
	for _, s := range streams {
		have += len(s) / p.BatchDocs
	}
	return int(dur.Seconds()*p.IngestRate/float64(p.BatchDocs)) + 1, have
}
