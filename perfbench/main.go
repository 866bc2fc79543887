// Command perfbench is the repository's benchmark: four workloads over
// trecsynth fleets, driven through the public Pool/Session/UpdatableLibrarian
// API, each checked for correctness before and while it is timed.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload cv-short --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no tracing
// installed; with --trace 1 it wraps the layer boundaries (dialer, librarian
// streams, direct calls into each package) and reports per-layer metrics.
// The first line of standard output is an environment header; the last is
// the result object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is everything about one invocation that is not a workload
// parameter.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// StateDir holds files that outlive one run: the deterministic-counter
	// records compared across runs of one seed, and span dumps. Empty
	// disables both.
	StateDir string
	// Log receives human-readable progress and the traced breakdown table.
	Log io.Writer
	// corrupt names a gate whose expected answers are deliberately altered,
	// so tests can prove the gate fails the run.
	corrupt string
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "corpus and query seed")
	seconds := flag.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	stateDir := flag.String("state", ".bench_build/state", "directory for counter records and span dumps")
	flag.Parse()

	p, ok := workloadParams(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, StateDir: *stateDir, Log: os.Stderr}

	hdr, err := json.Marshal(header(p, rc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(hdr))

	res, err := run(p, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// header is the environment header stamped on every output: the machine,
// toolchain, program version and run settings, plus the workload's
// parameters.
func header(p params, rc runConfig) map[string]any {
	return map[string]any{"env": environment(rc), "workload": p}
}

func environment(rc runConfig) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit(),
		"source":     sourceHash(),
		"seed":       rc.Seed,
		"seconds":    rc.Seconds,
		"trace":      rc.Trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the git revision of the working directory, or "none" outside a
// git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash identifies the program under test when there is no git
// revision: a digest of go.mod and every .go file outside the benchmark's
// own directory, in path order.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "none"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
