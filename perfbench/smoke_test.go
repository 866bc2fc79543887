package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// tiny shrinks a workload so every phase of a run (set-up, gate pass, timed
// phase, traced probes) finishes in about a second.
func tiny(t *testing.T, name string) params {
	t.Helper()
	p, ok := workloadParams(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p.Scale, p.Shrink, p.SetupReps, p.Slices = 0.02, true, 1, 2
	if p.Ingest {
		p.IngestRate, p.BatchDocs = 200, 10
	}
	return p
}

func tinyRun(t *testing.T, p params, trace bool, corrupt string) *result {
	t.Helper()
	res, err := run(p, runConfig{Seed: 3, Seconds: 0.5, Trace: trace, Log: io.Discard, corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", p.Name, trace, err)
	}
	return res
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloadParams(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, label string, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", label, names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", label, names, want)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			p := tiny(t, name)
			for _, trace := range []bool{false, true} {
				res := tinyRun(t, p, trace, "")
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				sameNames(t, name, res.Metrics, want)
				if !trace {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
						}
					}
				}
			}
		})
	}
}

// TestSmokeGatesFail proves each correctness gate can fail: with one
// expected answer altered, the run must report it incorrect.
func TestSmokeGatesFail(t *testing.T) {
	for _, tc := range []struct{ workload, corrupt string }{
		{"cv-short", "cv"},      // CV ≡ MS
		{"cv-long", "cv"},       // CV ≡ MS
		{"ci-wan", "ci-text"},   // fetched text ≡ generated text
		{"ci-wan", "ci-repeat"}, // timed answers ≡ first pass
		{"cn-ingest", "cn"},     // multi-segment ≡ rebuild
	} {
		t.Run(tc.workload+"/"+tc.corrupt, func(t *testing.T) {
			res := tinyRun(t, tiny(t, tc.workload), false, tc.corrupt)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("altered expectation passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestCountersFlagDrift checks the cross-run counter record: identical
// counts pass, a changed deterministic count or an allocation drift beyond
// the tolerance is flagged.
func TestCountersFlagDrift(t *testing.T) {
	p, _ := workloadParams("cv-short")
	rc := runConfig{Seed: 9, StateDir: t.TempDir(), Log: io.Discard}
	g := &gatePass{wireBytes: 1000, mallocs: 10000}
	if n := checkCounters(p, rc, g); n != 0 {
		t.Fatalf("first run flagged %d", n)
	}
	g.mallocs = 10000 * (1 + allocTolerance/2)
	if n := checkCounters(p, rc, g); n != 0 {
		t.Fatalf("allocation drift within tolerance flagged %d", n)
	}
	g.wireBytes++
	if n := checkCounters(p, rc, g); n != 1 {
		t.Fatalf("changed byte count flagged %d, want 1", n)
	}
	g.wireBytes--
	g.mallocs = 10000 * (1 + 2*allocTolerance)
	if n := checkCounters(p, rc, g); n != 1 {
		t.Fatalf("allocation drift beyond tolerance flagged %d, want 1", n)
	}
}

// TestFirstFrameSplits checks that the handshake is told apart from the
// traffic after it however the stream is cut into reads.
func TestFirstFrameSplits(t *testing.T) {
	frame := []byte{3, 0, 0, 0, 1, 'a', 'b', 'c'} // 5-byte header, 3-byte payload
	stream := append(append([]byte(nil), frame...), 9, 9, 9, 9)
	for cut1 := 0; cut1 <= len(stream); cut1++ {
		for cut2 := cut1; cut2 <= len(stream); cut2++ {
			var f firstFrame
			got := f.consume(stream[:cut1]) + f.consume(stream[cut1:cut2]) + f.consume(stream[cut2:])
			if got != len(frame) || !f.done {
				t.Fatalf("cuts %d,%d: handshake %d bytes (done %v), want %d", cut1, cut2, got, f.done, len(frame))
			}
		}
	}
}
