// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each BenchmarkTableN / BenchmarkFigureN runs the corresponding experiment
// from internal/experiments (in quick mode so `go test -bench=.` stays
// tractable; use `go run ./cmd/tetrisim run all` for full-size runs) and
// prints the reproduced table once, so the bench log doubles as the
// reproduction record. Timing reflects the full experiment, making the
// suite a regression guard on simulator and scheduler performance.
//
// Micro-benchmarks at the bottom isolate the control-plane costs the paper
// cares about: the DP planning latency (<10 ms claim, Appendix B), the
// per-step cost-model evaluation, and the end-to-end simulation throughput.
package tetriserve_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	tetriserve "tetriserve"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/experiments"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

var printOnce sync.Map

// runExperiment executes one registered experiment per bench iteration and
// prints its tables on the first iteration only.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := experiments.Context{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := exp.Run(ctx)
		if i == 0 {
			if _, done := printOnce.LoadOrStore(id, true); !done {
				b.StopTimer()
				fmt.Printf("\n===== %s =====\n", exp.Title)
				for _, t := range tables {
					fmt.Println(t.String())
				}
				b.StartTimer()
			}
		}
	}
}

// --- One benchmark per paper artifact. ---

func BenchmarkFigure1(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkFigure2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkTable3(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkTable4(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)   { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)   { runExperiment(b, "table6") }

// BenchmarkExtensionsAblation covers the mechanisms this reproduction adds
// beyond the paper (eager admission, quantization-aware allocation, …).
func BenchmarkExtensionsAblation(b *testing.B) { runExperiment(b, "ext1") }

// --- Control-plane micro-benchmarks. ---

var (
	benchTopo = simgpu.H100x8()
	benchMdl  = model.FLUX()
	benchProf = costmodel.BuildProfile(
		costmodel.NewEstimator(benchMdl, benchTopo), costmodel.ProfilerConfig{})
)

// benchPlanCtx builds the fixed planning snapshot the planner benches use.
func benchPlanCtx(depth int) *sched.PlanContext {
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

// benchRescueState shapes one request so no plain option can survive but a
// cache-assisted tail still clears the deadline: 20 of 200 steps computed, a
// quality budget of half the steps, and an SLO placed between the best
// cached projection (plus ample rescue margin) and the plain-service lower
// bound. The planner must walk the full rescue path — per-option cache
// intervals, budget clipping, and the cacheFeasibleAt gate — for each one.
func benchRescueState(id int, res model.Resolution) *sched.RequestState {
	const steps, remaining, budget, maxInterval = 200, 180, 100, 4
	tmin, _ := benchProf.MinStepTime(res)
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
	return &sched.RequestState{
		Req: &workload.Request{
			ID:            workload.RequestID(id),
			Res:           res,
			Steps:         steps,
			SLO:           bound + 300*time.Millisecond,
			QualityBudget: budget,
		},
		Remaining: remaining,
	}
}

// benchPlanCtxCached is benchPlanCtx with the step-cache dimension live:
// every other request is deadline-infeasible at interval 1 but rescuable
// within its quality budget, so the round decision mixes plain packing with
// cache-assisted rescues.
func benchPlanCtxCached(depth int) *sched.PlanContext {
	resList := model.StandardResolutions()
	pending := make([]*sched.RequestState, depth)
	for i := range pending {
		res := resList[i%len(resList)]
		if i%2 == 1 {
			pending[i] = benchRescueState(i, res)
			continue
		}
		pending[i] = &sched.RequestState{
			Req: &workload.Request{
				ID:    workload.RequestID(i),
				Res:   res,
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

// BenchmarkPlanLatency measures one TetriServe round decision for queue
// depths the paper tabulates — the <10 ms control-plane claim. Every call
// re-plans the same snapshot in full: the late/active partition, candidate
// construction and assembly run over the whole queue, while the DP resumes
// every row from the previous call's checkpoint. BenchmarkWarmStartPlan
// isolates the cold and partially-warm regimes.
func BenchmarkPlanLatency(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			s := core.NewScheduler(benchProf, benchTopo, core.DefaultConfig())
			ctx := benchPlanCtx(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Plan(ctx)
			}
		})
	}
}

// BenchmarkPlanLatencyCached measures the round decision with the step-cache
// dimension enabled (MaxCacheInterval 4) at the snapshot depths: half the
// queue needs a cache-assisted rescue, so the number prices the schedulable
// per-step cost knob against the plain PlanLatency baseline. The hot path
// must stay allocation-free — cached variants alias the candidate's fixed
// option buffer.
func BenchmarkPlanLatencyCached(b *testing.B) {
	for _, depth := range []int{256, 4096} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MaxCacheInterval = 4
			s := core.NewScheduler(benchProf, benchTopo, cfg)
			ctx := benchPlanCtxCached(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Plan(ctx)
			}
		})
	}
}

// BenchmarkWarmStartPlan pins the incremental planner's regimes at a 4096
// deep queue: a full cold solve, a near-total DP resume (last request
// perturbed each round), and 50%-average resume (rotating perturbation).
func BenchmarkWarmStartPlan(b *testing.B) {
	const depth = 4096
	for _, mode := range []string{"cold", "steady", "churn"} {
		b.Run(mode, func(b *testing.B) {
			cfg := core.DefaultConfig()
			if mode == "cold" {
				cfg.WarmStart = false
			}
			s := core.NewScheduler(benchProf, benchTopo, cfg)
			ctx := benchPlanCtx(depth)
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
		})
	}
}

// BenchmarkSimEvents measures simulator event throughput over a
// pre-generated trace, isolating the event path from trace construction.
func BenchmarkSimEvents(b *testing.B) {
	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       benchMdl,
		NumRequests: 150,
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

// BenchmarkExhaustivePlanner measures the Appendix-B solver on the small
// instances that are still tractable (R ∈ {1,2} on 4 GPUs).
func BenchmarkExhaustivePlanner(b *testing.B) {
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("reqs=%d", r), func(b *testing.B) {
			st := map[int]time.Duration{}
			for k := 1; k <= 4; k *= 2 {
				st[k] = benchProf.StepTime(model.Res1024, k)
			}
			inst := sched.ExhaustiveInstance{N: 4, Degrees: []int{1, 2, 4}}
			for i := 0; i < r; i++ {
				inst.Requests = append(inst.Requests, sched.ExhaustiveRequest{
					Deadline: 3 * time.Second,
					Steps:    5,
					StepTime: st,
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.SolveExhaustive(inst, time.Minute)
			}
		})
	}
}

// BenchmarkStepTimeEstimate measures one analytical cost-model evaluation.
func BenchmarkStepTimeEstimate(b *testing.B) {
	est := costmodel.NewEstimator(benchMdl, benchTopo)
	group := simgpu.CanonicalGroup(0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est.StepTime(model.Res1024, group, 1)
	}
}

// BenchmarkProfileLookup measures the scheduler-side table lookup.
func BenchmarkProfileLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchProf.StepTime(model.Res2048, 8)
	}
}

// BenchmarkSimulation measures end-to-end simulated-serving throughput:
// one full 150-request trace per iteration.
func BenchmarkSimulation(b *testing.B) {
	for _, name := range []string{"TetriServe", "xDiT-SP8"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sc sched.Scheduler
				if name == "TetriServe" {
					sc = core.NewScheduler(benchProf, benchTopo, core.DefaultConfig())
				} else {
					sc = sched.NewFixedSP(8)
				}
				reqs := workload.Generate(workload.GeneratorConfig{
					Model:       benchMdl,
					NumRequests: 150,
					Seed:        uint64(i + 1),
				})
				if _, err := sim.Run(sim.Config{
					Model: benchMdl, Topo: benchTopo, Scheduler: sc,
					Requests: reqs, Profile: benchProf,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFacadeQuickstart exercises the public facade end to end.
func BenchmarkFacadeQuickstart(b *testing.B) {
	mdl := tetriserve.FLUX()
	topo := tetriserve.H100x8()
	prof := tetriserve.Profile(mdl, topo)
	for i := 0; i < b.N; i++ {
		s := tetriserve.NewScheduler(prof, topo, tetriserve.DefaultSchedulerConfig())
		res, err := tetriserve.Simulate(tetriserve.SimConfig{
			Model: mdl, Topo: topo, Scheduler: s, Profile: prof,
			Requests: tetriserve.GenerateWorkload(tetriserve.WorkloadConfig{
				Model: mdl, NumRequests: 60, Seed: uint64(i + 1),
			}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if tetriserve.SAR(res) <= 0 {
			b.Fatal("zero SAR")
		}
	}
}
