package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/sched"
	"tetriserve/internal/server"
	"tetriserve/internal/workload"
)

// tiny shrinks a simulator workload to a few hundred requests per episode.
func tiny(w simWorkload) simWorkload {
	w.episodes = 2
	w.requests = 300
	return w
}

var simWorkloads = map[string]simWorkload{
	"sim-deep":        simDeep,
	"sim-deep-cached": simDeepCached,
	"sim-fleet":       simFleet,
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: runner present %v, why %q", w.Name, ok, w.Why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the runner knows %d workloads", names, len(workloads))
	}
	var e2e []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the runner's table")
	}
	if !slices.Equal(bench.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the runner's table")
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		checkDef(t, d)
	}
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkDef(t *testing.T, d metricDef) {
	t.Helper()
	if !validName.MatchString(d.Name) || !validUnit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
		t.Errorf("bad metric definition %+v", d)
	}
}

// checkReport asserts a run was correct and reported exactly its mode's
// metrics, each with a valid name and its table's unit.
func checkReport(t *testing.T, rep *report, traced bool) {
	t.Helper()
	if len(rep.problems) > 0 || rep.failed > 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, failed %d, problems %v", rep.attempted, rep.failed, rep.problems)
	}
	if err := rep.metrics.complete(traced); err != nil {
		t.Fatal(err)
	}
	for _, d := range defsFor(traced) {
		if v := rep.metrics[d.Name]; v.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestTinyRuns runs a tiny version of every workload in both modes.
func TestTinyRuns(t *testing.T) {
	for name, w := range simWorkloads {
		for _, traced := range []bool{false, true} {
			opts := options{seed: 3, seconds: 0.1, trace: traced, spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
			rep, err := runSim(tiny(w), opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			checkReport(t, rep, traced)
			if !traced && rep.metrics["req_per_cpu_s"].Value <= 0 {
				t.Errorf("%s: req_per_cpu_s %v", name, rep.metrics["req_per_cpu_s"].Value)
			}
		}
	}
	if testing.Short() {
		t.Skip("live fleet skipped in -short mode")
	}
	for _, traced := range []bool{false, true} {
		rep, err := runLive(options{seed: 3, seconds: 1, trace: traced, spansOut: filepath.Join(t.TempDir(), "spans.jsonl")})
		if err != nil {
			t.Fatalf("live traced=%v: %v", traced, err)
		}
		checkReport(t, rep, traced)
	}
}

// TestTracedReplayDecidesIdentically: the timing wrappers must not change
// what the program decides, and neither may the invariant oracle.
func TestTracedReplayDecidesIdentically(t *testing.T) {
	for name, w := range simWorkloads {
		w = tiny(w)
		fx := w.setup(5)
		plain, err := w.replayEpisode(fx, 0, nil, &spanSink{}, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := w.replayEpisode(fx, 0, tr, &spanSink{}, false)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := w.replayEpisode(fx, 0, nil, &spanSink{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.fp != traced.fp || plain.fp != checked.fp {
			t.Errorf("%s: fingerprints plain %x, traced %x, checked %x", name, plain.fp, traced.fp, checked.fp)
		}
		if len(durations(tr.snapshot(), "core.Plan")) == 0 {
			t.Errorf("%s: traced replay recorded no core.Plan spans", name)
		}
	}
}

// TestTimedSchedulerForwards: the control loop and the probe discover these
// methods by type assertion; the wrapper must answer as the scheduler does.
func TestTimedSchedulerForwards(t *testing.T) {
	fx := simDeepCached.setup(1)
	inner := core.NewScheduler(fx.profs[0], fx.topos[0], simDeepCached.config())
	var s sched.Scheduler = &timedScheduler{Scheduler: inner, tr: newTracer()}
	o, ok1 := s.(interface{ Overhead() time.Duration })
	e, ok2 := s.(interface{ EagerAdmission() bool })
	c, ok3 := s.(interface{ MaxCacheInterval() int })
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("wrapper hides optional methods: %v %v %v", ok1, ok2, ok3)
	}
	if o.Overhead() != inner.Overhead() || e.EagerAdmission() != inner.EagerAdmission() || c.MaxCacheInterval() != 4 {
		t.Errorf("wrapper answers %v %v %v, scheduler %v %v %v",
			o.Overhead(), e.EagerAdmission(), c.MaxCacheInterval(), inner.Overhead(), inner.EagerAdmission(), inner.MaxCacheInterval())
	}
}

// TestAttainmentCountsMisses pins slo_attainment to met ÷ offered: drops,
// router rejections and 429s are offered requests that missed.
func TestAttainmentCountsMisses(t *testing.T) {
	trace := []*workload.Request{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	fx := &simFixture{traces: [][]*workload.Request{trace}}
	run := &simRun{cpus: make([][]float64, 1), allocs: make([][]float64, 1), retained: make([][]float64, 1), fps: make([]uint64, 1)}
	rep := &report{}
	run.record(fx, 0, &replay{
		results: []*control.Result{{Outcomes: []control.Outcome{
			{ID: 1, Met: true},
			{ID: 2},
			{ID: 3, Dropped: true},
		}}},
		rejected: []workload.RequestID{4},
	}, 8, rep)
	if len(rep.problems) > 0 {
		t.Fatal(rep.problems)
	}
	if got := run.attainment(); got != 0.25 {
		t.Errorf("sim attainment %v, want 0.25", got)
	}

	gens := []*op{
		{status: http.StatusAccepted}, {status: http.StatusAccepted}, {status: http.StatusAccepted},
		{status: http.StatusTooManyRequests}, {status: http.StatusTooManyRequests},
	}
	jobs := []server.Job{
		{State: server.JobCompleted, MetSLO: true},
		{State: server.JobCompleted},
		{State: server.JobDropped},
	}
	if got := liveAttainment(gens, jobs); got != 0.2 {
		t.Errorf("live attainment %v, want 0.2", got)
	}
}
