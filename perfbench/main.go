// Command perfbench is the repository benchmark: one seeded workload per
// invocation, end-to-end metrics from an untraced run (--trace 0) or
// per-layer metrics from a traced run (--trace 1), printed as one JSON object
// on the last line of standard output after the outputs were checked.
//
//	perfbench --workload sim-deep --seed 1 --seconds 10 --trace 0
//
// Workloads: sim-deep, sim-deep-cached, sim-fleet, live-fleet. See README.md
// for what each measures and which end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line knobs every workload receives.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	spansOut string
}

// report is what a workload run returns: counted operations, the metrics of
// the requested mode, and the correctness verdict.
type report struct {
	attempted, failed int
	metrics           metricSet
	// problems lists failed correctness checks; any entry makes the run
	// incorrect.
	problems []string
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(opts options) (*report, error)

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]workloadFunc{
	"sim-deep":        func(o options) (*report, error) { return runSim(simDeep, o) },
	"sim-deep-cached": func(o options) (*report, error) { return runSim(simDeepCached, o) },
	"sim-fleet":       func(o options) (*report, error) { return runSim(simFleet, o) },
	"live-fleet":      runLive,
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (sim-deep, sim-deep-cached, sim-fleet, live-fleet)")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if opts.trace {
		opts.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}

	start := time.Now()
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	if err := rep.metrics.complete(opts.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", *name, *seed, time.Since(start).Seconds())
	out, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}
