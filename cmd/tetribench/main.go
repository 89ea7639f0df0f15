// Command tetribench runs the control-plane micro-benchmarks (planner
// latency, cost-model evaluation, profile lookup, end-to-end simulation)
// outside `go test` and writes a JSON snapshot so the performance trajectory
// is tracked across changes:
//
//	go run ./cmd/tetribench -o BENCH_planner.json
//
// The snapshot is a list of {bench, ns_op, allocs_op} records, one per
// benchmark. Compare snapshots across commits to catch control-plane
// regressions; `make bench-snapshot` wraps this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

type record struct {
	Bench    string  `json:"bench"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

var (
	benchTopo = simgpu.H100x8()
	benchMdl  = model.FLUX()
	benchProf = costmodel.BuildProfile(
		costmodel.NewEstimator(benchMdl, benchTopo), costmodel.ProfilerConfig{})
)

// planLatency mirrors BenchmarkPlanLatency: one TetriServe round decision at
// the given queue depth — the paper's <10 ms control-plane claim. The
// snapshot is split into on-time and late requests once, as the control
// loop hands it over; each call re-plans it in full and only the DP resumes
// its rows.
func planLatency(depth int) func(*testing.B) {
	return func(b *testing.B) {
		s := core.NewScheduler(benchProf, benchTopo, core.DefaultConfig())
		ctx := benchCtx(depth)
		sched.SplitPending(ctx, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Plan(ctx)
		}
	}
}

// benchCtx builds the fixed planning snapshot planLatency-style benches use.
func benchCtx(depth int) *sched.PlanContext {
	resList := model.StandardResolutions()
	pending := make([]*sched.RequestState, depth)
	for i := range pending {
		pending[i] = &sched.RequestState{
			Req: &workload.Request{
				ID:    workload.RequestID(i),
				Res:   resList[i%len(resList)],
				Steps: 50,
				SLO:   5 * time.Second,
			},
			Remaining: 50,
		}
	}
	return &sched.PlanContext{
		Free:    benchTopo.AllMask(),
		Pending: pending,
		Profile: benchProf,
		Topo:    benchTopo,
	}
}

// planLatencyCached mirrors BenchmarkPlanLatencyCached: the round decision
// with the step-cache dimension enabled (MaxCacheInterval 4) on a queue
// where half the requests need a cache-assisted rescue. The delta against
// PlanLatency at the same depth prices the schedulable per-step cost knob.
func planLatencyCached(depth int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.MaxCacheInterval = 4
		s := core.NewScheduler(benchProf, benchTopo, cfg)
		ctx := benchCtxCached(depth)
		sched.SplitPending(ctx, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Plan(ctx)
		}
	}
}

// benchCtxCached is benchCtx with every other request reshaped so no plain
// option survives but a cache-assisted tail still clears the deadline: 20 of
// 200 steps computed, a quality budget of half the steps, and an SLO placed
// between the best cached projection (plus ample rescue margin) and the
// plain-service lower bound.
func benchCtxCached(depth int) *sched.PlanContext {
	const steps, remaining, budget, maxInterval = 200, 180, 100, 4
	ctx := benchCtx(depth)
	for i, st := range ctx.Pending {
		if i%2 == 0 {
			continue
		}
		tmin, _ := benchProf.MinStepTime(st.Req.Res)
		done := steps - remaining
		start := done
		if start < sched.CacheProtectedSteps {
			start = sched.CacheProtectedSteps
		}
		a := sched.ApproxSteps(steps-sched.CacheProtectedSteps-start, maxInterval)
		if a > budget {
			a = budget
		}
		gamma := benchProf.CachedStepRelCost()
		bound := time.Duration(remaining-a)*tmin +
			time.Duration(float64(a)*gamma*float64(tmin))
		st.Req.Steps = steps
		st.Req.SLO = bound + 300*time.Millisecond
		st.Req.QualityBudget = budget
		st.Remaining = remaining
	}
	return ctx
}

// warmStartPlan isolates the incremental planner's three regimes at one
// queue depth. "cold" disables warm start entirely — the honest full-solve
// number (and the denominator of the warm-start speedup). "steady" perturbs
// the last pending request every iteration, so the DP resumes from a
// near-complete checkpoint. "churn"
// perturbs a rotating request, so on average half the DP table is reusable.
func warmStartPlan(mode string, depth int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		if mode == "cold" {
			cfg.WarmStart = false
		}
		s := core.NewScheduler(benchProf, benchTopo, cfg)
		ctx := benchCtx(depth)
		// Every request stays on time while its Remaining only cycles
		// below its initial 50, so the split made here stays exact.
		sched.SplitPending(ctx, s)
		s.Plan(ctx)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			switch mode {
			case "steady":
				st := ctx.Pending[depth-1]
				st.Remaining = 2 + (st.Remaining+1)%49
			case "churn":
				st := ctx.Pending[i%depth]
				st.Remaining = 2 + (st.Remaining+1)%49
			}
			s.Plan(ctx)
		}
	}
}

// simEvents measures simulator event throughput over a pre-generated trace:
// unlike simulation(), workload generation is hoisted out of the loop, so
// the number is the event path itself (arena-allocated queue, pooled runs,
// preallocated accumulators) rather than trace construction.
func simEvents(n int) func(*testing.B) {
	return func(b *testing.B) {
		reqs := workload.Generate(workload.GeneratorConfig{
			Model:       benchMdl,
			NumRequests: n,
			Seed:        1,
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sim.Config{
				Model: benchMdl, Topo: benchTopo,
				Scheduler: core.NewScheduler(benchProf, benchTopo, core.DefaultConfig()),
				Requests:  reqs, Profile: benchProf,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// controlRoundTick measures the shared control loop's event-dispatch path —
// plan + engine dispatch + finish/requeue bookkeeping — at a steady queue
// depth. Requests carry effectively infinite step budgets so the pending
// population never shrinks: every iteration dispatches one loop event (a τ
// boundary or a block completion) and the cost amortizes to the per-round
// overhead both the simulator and the online driver pay. With a huge SLO
// every request stays on time; with an SLO already past the whole queue is
// a definitely-late backlog the best-effort lane drains from its front.
func controlRoundTick(depth int, slo time.Duration) func(*testing.B) {
	return func(b *testing.B) {
		clk := clock.NewVirtual()
		l, err := control.New(control.Config{
			Model:     benchMdl,
			Topo:      benchTopo,
			Scheduler: core.NewScheduler(benchProf, benchTopo, core.DefaultConfig()),
			Profile:   benchProf,
			Engine:    engine.DefaultConfig(),
			Perpetual: true,
			Preallocate: control.Prealloc{
				Requests: depth, Runs: 1 << 16, Rounds: 1 << 16,
			},
		}, clk)
		if err != nil {
			b.Fatal(err)
		}
		resList := model.StandardResolutions()
		for i := 0; i < depth; i++ {
			l.Arrive(&workload.Request{
				ID:    workload.RequestID(i),
				Res:   resList[i%len(resList)],
				Steps: 1 << 20,
				SLO:   slo,
			})
		}
		l.Begin()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := l.PopEvent()
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hookOverhead is controlRoundTick with the full telemetry plane attached:
// the delta against the bare numbers is the per-event price of live
// observability. A warm-up long enough to wrap the 512-round ring puts the
// decision log in steady state (recycled storage) before measurement starts.
func hookOverhead(depth int) func(*testing.B) {
	return func(b *testing.B) {
		clk := clock.NewVirtual()
		plane := telemetry.NewPlane()
		plane.SetClusterSize(benchTopo.N)
		l, err := control.New(control.Config{
			Model:     benchMdl,
			Topo:      benchTopo,
			Scheduler: core.NewScheduler(benchProf, benchTopo, core.DefaultConfig()),
			Profile:   benchProf,
			Engine:    engine.DefaultConfig(),
			Perpetual: true,
			Hooks:     plane.Hooks(),
		}, clk)
		if err != nil {
			b.Fatal(err)
		}
		resList := model.StandardResolutions()
		for i := 0; i < depth; i++ {
			l.Arrive(&workload.Request{
				ID:    workload.RequestID(i),
				Res:   resList[i%len(resList)],
				Steps: 1 << 20,
				SLO:   1000 * time.Hour,
			})
		}
		l.Begin()
		for i := 0; i < 2048; i++ {
			ev := l.PopEvent()
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := l.PopEvent()
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// SLOs for controlRoundTick: one no request outlives, and one already past
// at arrival.
const (
	onTimeSLO = 1000 * time.Hour
	lateSLO   = time.Nanosecond
)

func stepTimeEstimate(b *testing.B) {
	est := costmodel.NewEstimator(benchMdl, benchTopo)
	group := simgpu.CanonicalGroup(0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est.StepTime(model.Res1024, group, 1)
	}
}

func profileLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchProf.StepTime(model.Res2048, 8)
	}
}

// simulation runs one full 150-request trace per iteration.
func simulation(mk func() sched.Scheduler) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqs := workload.Generate(workload.GeneratorConfig{
				Model:       benchMdl,
				NumRequests: 150,
				Seed:        uint64(i + 1),
			})
			if _, err := sim.Run(sim.Config{
				Model: benchMdl, Topo: benchTopo, Scheduler: mk(),
				Requests: reqs, Profile: benchProf,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shardedSim measures the router-over-shards harness on a pre-generated
// trace: admission probes, per-shard control loops on the arena event path,
// and (optionally) the elastic rebalancer's probe/decide/resize rounds.
func shardedSim(nShards, gpus int, elastic bool) func(*testing.B) {
	return func(b *testing.B) {
		reqs := workload.Generate(workload.GeneratorConfig{
			Model:       benchMdl,
			NumRequests: 150,
			Seed:        1,
		})
		mkShards := func() []sim.ShardSpec {
			specs := make([]sim.ShardSpec, nShards)
			for i := range specs {
				topo := simgpu.H100x8()
				prof := costmodel.BuildProfile(costmodel.NewEstimator(benchMdl, topo), costmodel.ProfilerConfig{})
				specs[i] = sim.ShardSpec{
					Name:      fmt.Sprintf("shard%d", i),
					Topo:      topo,
					Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
					Profile:   prof,
					Capacity:  simgpu.MaskRange(0, gpus),
				}
			}
			return specs
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := sim.ShardedConfig{
				Model:    benchMdl,
				Shards:   mkShards(),
				Requests: reqs,
			}
			if elastic {
				cfg.Rebalance = &sim.RebalanceConfig{}
			}
			if _, err := sim.RunSharded(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func main() {
	out := flag.String("o", "BENCH_planner.json", "output snapshot path")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"PlanLatency/queue=4", planLatency(4)},
		{"PlanLatency/queue=16", planLatency(16)},
		{"PlanLatency/queue=64", planLatency(64)},
		{"PlanLatency/queue=256", planLatency(256)},
		{"PlanLatency/queue=1024", planLatency(1024)},
		{"PlanLatency/queue=4096", planLatency(4096)},
		{"PlanLatencyCached/queue=256", planLatencyCached(256)},
		{"PlanLatencyCached/queue=4096", planLatencyCached(4096)},
		{"WarmStartPlan/cold/queue=4096", warmStartPlan("cold", 4096)},
		{"WarmStartPlan/steady/queue=4096", warmStartPlan("steady", 4096)},
		{"WarmStartPlan/churn/queue=4096", warmStartPlan("churn", 4096)},
		{"SimEvents/reqs=150", simEvents(150)},
		{"ControlRoundTick/queue=16", controlRoundTick(16, onTimeSLO)},
		{"ControlRoundTick/queue=64", controlRoundTick(64, onTimeSLO)},
		{"ControlRoundTick/queue=256", controlRoundTick(256, onTimeSLO)},
		{"ControlRoundTick/late=256", controlRoundTick(256, lateSLO)},
		{"HookOverhead/queue=64", hookOverhead(64)},
		{"HookOverhead/queue=256", hookOverhead(256)},
		{"StepTimeEstimate", stepTimeEstimate},
		{"ProfileLookup", profileLookup},
		{"Simulation/TetriServe", simulation(func() sched.Scheduler {
			return core.NewScheduler(benchProf, benchTopo, core.DefaultConfig())
		})},
		{"Simulation/xDiT-SP8", simulation(func() sched.Scheduler {
			return sched.NewFixedSP(8)
		})},
		{"ShardedSim/4x2", shardedSim(4, 2, false)},
		{"ShardedSim/4x2-elastic", shardedSim(4, 2, true)},
	}

	var records []record
	for _, bench := range benches {
		res := testing.Benchmark(bench.fn)
		rec := record{
			Bench:    bench.name,
			NsOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsOp: res.AllocsPerOp(),
		}
		records = append(records, rec)
		fmt.Printf("%-24s %12.0f ns/op %8d allocs/op (n=%d)\n",
			rec.Bench, rec.NsOp, rec.AllocsOp, res.N)
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetribench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tetribench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(records))
}
