package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric, its unit and which way is better. The two
// tables below are the benchmark's contract and are mirrored one for one in
// BENCHMARK.json (a self-test keeps them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are reported by every untraced run. Each has one meaning per
// workload family; README.md spells both out.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_cpu_s", "1/s", "higher"},
	{"slo_attainment", "ratio", "higher"},
	{"req_latency_mean_s", "s", "lower"},
	{"req_latency_p99_s", "s", "lower"},
	{"gpu_s_per_req", "s", "lower"},
	{"alloc_kb_per_req", "KiB", "lower"},
	{"retained_kb_per_req", "KiB", "lower"},
	{"decision_p50_ms", "ms", "lower"},
}

// perLayer are reported by every traced run. A metric whose layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower"},
	{"costmodel.build_profile_ms", "ms", "lower"},
	{"core.plan_calls", "count", "lower"},
	{"core.plan_us_p50", "us", "lower"},
	{"core.plan_us_p99", "us", "lower"},
	{"core.plan_share", "ratio", "lower"},
	{"core.queue_depth_p50", "count", "lower"},
	{"core.queue_depth_p99", "count", "lower"},
	{"core.rescued_reqs", "count", "higher"},
	{"core.approx_steps", "count", "lower"},
	{"control.round_ticks", "count", "lower"},
	{"control.blocks", "count", "lower"},
	{"control.plan_rejected", "count", "lower"},
	{"control.start_failed", "count", "lower"},
	{"control.queue_wait_p50_s", "s", "lower"},
	{"control.queue_wait_p99_s", "s", "lower"},
	{"engine.mean_degree", "gpus", "higher"},
	{"engine.gpu_busy_share", "ratio", "higher"},
	{"engine.preempted_runs", "count", "lower"},
	{"router.probes_per_decision", "count", "lower"},
	{"router.reject_ratio", "ratio", "lower"},
	{"router.probe_cache_hit_ratio", "ratio", "higher"},
	{"router.shard_probe_us_p50", "us", "lower"},
	{"router.shard_probe_us_p99", "us", "lower"},
	{"router.self_us_p50", "us", "lower"},
	{"rebalance.moves", "count", "lower"},
	{"lifecycle.sink_lines", "count", "lower"},
	{"lifecycle.sink_kb", "KiB", "lower"},
	{"lifecycle.sink_share", "ratio", "lower"},
	{"server.handler_us_p50", "us", "lower"},
	{"server.handler_us_p99", "us", "lower"},
	{"server.transport_us_p50", "us", "lower"},
	{"server.submit_us_p50", "us", "lower"},
	{"server.submit_us_p99", "us", "lower"},
	{"server.read_handler_us_p99", "us", "lower"},
	{"server.read_p99_ms", "ms", "lower"},
	{"server.goroutines_end", "count", "lower"},
	{"sim.residual_share", "ratio", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.heap_peak_mb", "MiB", "lower"},
	{"loadgen.admit_p99_ms", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metricValue

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// set records a metric of the given mode's table, taking the unit from it.
func (m metricSet) set(name string, v float64) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				m[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is in neither table")
}

// complete fills the layer metrics a workload does not exercise with 0 and
// checks that the set holds exactly the mode's metrics, each finite.
func (m metricSet) complete(traced bool) error {
	defs := defsFor(traced)
	if traced {
		for _, d := range defs {
			if _, ok := m[d.Name]; !ok {
				m.set(d.Name, 0)
			}
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("reported %d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// scale multiplies every element (unit conversion).
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// cpuTime returns the CPU time the process has used, all threads, user and
// system. The kernel leaves out time a virtual machine's host gave to other
// guests (steal), which on a shared host moved wall-clock throughput by a
// third between runs of the same work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
