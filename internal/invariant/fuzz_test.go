package invariant_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/invariant"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// The fuzz harness: seeded generators turn primitive fuzz inputs into
// workload/topology/fault instances, run them through the planner (and the
// whole control loop) with the oracle enabled, and fail on any invariant
// violation or nondeterminism. Failing inputs land in testdata/fuzz/ as
// corpus entries that plain `go test ./...` replays forever after.

var (
	profMu    sync.Mutex
	profCache = map[int]*costmodel.Profile{}
)

// fuzzProfile returns the cached FLUX profile for an n-GPU H100 node
// (profiles are deterministic, so sharing them keeps iterations cheap).
func fuzzProfile(n int) (*costmodel.Profile, *simgpu.Topology) {
	topo := simgpu.H100xN(n)
	profMu.Lock()
	defer profMu.Unlock()
	p, ok := profCache[n]
	if !ok {
		p = costmodel.BuildProfile(costmodel.NewEstimator(model.FLUX(), topo), costmodel.ProfilerConfig{})
		profCache[n] = p
	}
	return p, topo
}

// frozenWall pins the planner's latency diagnostic off the wall clock.
func frozenWall() time.Time { return time.Unix(0, 0) }

// randGroup returns a random legal (power-of-two, aligned) group within the
// n-GPU node, or 0.
func randGroup(rng *stats.RNG, n int) simgpu.Mask {
	size := 1 << rng.Intn(4)
	if size > n {
		return 0
	}
	base := rng.Intn(n/size) * size
	return simgpu.MaskRange(simgpu.GPUID(base), size)
}

// fuzzPlanContext builds a randomized planning snapshot: a random free mask,
// pending requests with random resolutions, budgets, progress, and prior
// placements.
func fuzzPlanContext(rng *stats.RNG, prof *costmodel.Profile, topo *simgpu.Topology, nReq int) *sched.PlanContext {
	resList := model.StandardResolutions()
	now := time.Duration(rng.Intn(120_000)) * time.Millisecond
	free := simgpu.Mask(rng.Uint64()) & topo.AllMask()
	pending := make([]*sched.RequestState, 0, nReq)
	for i := 0; i < nReq; i++ {
		steps := 1 + rng.Intn(50)
		arrival := now - time.Duration(rng.Intn(5000))*time.Millisecond
		if arrival < 0 {
			arrival = 0
		}
		st := &sched.RequestState{
			Req: &workload.Request{
				ID:      workload.RequestID(i + 1),
				Res:     resList[rng.Intn(len(resList))],
				Steps:   steps,
				Arrival: arrival,
				SLO:     time.Duration(200+rng.Intn(6000)) * time.Millisecond,
			},
			Remaining: 1 + rng.Intn(steps),
			LastGroup: randGroup(rng, topo.N),
		}
		pending = append(pending, st)
	}
	return &sched.PlanContext{Now: now, Free: free, Pending: pending, Profile: prof, Topo: topo}
}

// clonePlan deep-copies a plan out of the scheduler's scratch so two plans
// from two scheduler instances can be compared after both have run.
func clonePlan(plan []sched.Assignment) []sched.Assignment {
	out := make([]sched.Assignment, len(plan))
	for i, a := range plan {
		a.Requests = append([]workload.RequestID(nil), a.Requests...)
		out[i] = a
	}
	return out
}

// FuzzPlanRound feeds randomized planning snapshots to Algorithm 1 with
// every mechanism-flag combination and checks that each produced plan passes
// the full invariant battery and that planning is deterministic.
func FuzzPlanRound(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(0b1111))
	f.Add(uint64(7), uint8(2), uint8(12), uint8(0b0101))
	f.Add(uint64(1234), uint8(1), uint8(1), uint8(0b1010))
	f.Fuzz(func(t *testing.T, seed uint64, nGPUSel, nReqSel, flags uint8) {
		n := 1 << (int(nGPUSel) % 4) // 1, 2, 4, 8 GPUs
		nReq := 1 + int(nReqSel)%16
		prof, topo := fuzzProfile(n)

		cfg := core.DefaultConfig()
		cfg.PlacementPreservation = flags&1 != 0
		cfg.ElasticScaleUp = flags&2 != 0
		cfg.SelectiveBatching = flags&4 != 0
		cfg.BestEffortLane = flags&8 != 0
		cfg.WallClock = frozenWall

		newCtx := func() *sched.PlanContext {
			return fuzzPlanContext(stats.NewRNG(seed), prof, topo, nReq)
		}
		ctx := newCtx()
		s := core.NewScheduler(prof, topo, cfg)
		plan := s.Plan(ctx)

		if err := sched.ValidatePlan(ctx, plan); err != nil {
			t.Fatalf("plan failed baseline validation: %v", err)
		}
		if vs := invariant.CheckPlan(ctx, plan, s.RoundDuration()); len(vs) != 0 {
			t.Fatalf("plan violated invariants: %v", vs)
		}

		// Determinism: a fresh scheduler over an identical snapshot must
		// produce the identical plan.
		got := clonePlan(plan)
		again := clonePlan(core.NewScheduler(prof, topo, cfg).Plan(newCtx()))
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("planning is nondeterministic:\n first: %+v\nsecond: %+v", got, again)
		}
	})
}

// warmColdEquivalence drives a warm-start scheduler and a cold one through
// the same evolving sequence of planning snapshots and demands byte-identical
// plans every round. The evolution mixes the three regimes the incremental
// planner distinguishes: perturbed rounds (partial DP-prefix reuse),
// repeated identical snapshots (every DP row resumed), and churn heavy
// enough to force cold solves.
func warmColdEquivalence(t *testing.T, seed uint64, nGPUSel, nReqSel, flags uint8) {
	n := 1 << (int(nGPUSel) % 4) // 1, 2, 4, 8 GPUs
	nReq := 1 + int(nReqSel)%16
	prof, topo := fuzzProfile(n)
	resList := model.StandardResolutions()

	mk := func(warmStart bool) *core.Scheduler {
		cfg := core.DefaultConfig()
		cfg.PlacementPreservation = flags&1 != 0
		cfg.ElasticScaleUp = flags&2 != 0
		cfg.SelectiveBatching = flags&4 != 0
		cfg.BestEffortLane = flags&8 != 0
		cfg.WarmStart = warmStart
		cfg.WallClock = frozenWall
		return core.NewScheduler(prof, topo, cfg)
	}
	warm, cold := mk(true), mk(false)

	ctx := fuzzPlanContext(stats.NewRNG(seed), prof, topo, nReq)
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	tau := warm.RoundDuration()
	nextID := len(ctx.Pending) + 1
	for round := 0; round < 12; round++ {
		wp := clonePlan(warm.Plan(ctx))
		cp := clonePlan(cold.Plan(ctx))
		if !reflect.DeepEqual(wp, cp) {
			t.Fatalf("round %d: warm and cold plans diverge:\n warm: %+v\n cold: %+v", round, wp, cp)
		}
		if err := sched.ValidatePlan(ctx, wp); err != nil {
			t.Fatalf("round %d: plan failed validation: %v", round, err)
		}
		// Evolve the snapshot for the next round.
		if rng.Intn(4) == 0 {
			continue // unchanged snapshot: full DP resume vs cold re-solve
		}
		ctx.Now += tau
		for _, st := range ctx.Pending {
			switch rng.Intn(3) {
			case 0:
				st.Remaining -= rng.Intn(5)
				if st.Remaining < 1 {
					st.Remaining = 1
				}
			case 1:
				st.LastGroup = randGroup(rng, topo.N)
			}
		}
		if rng.Intn(3) == 0 {
			ctx.Free = simgpu.Mask(rng.Uint64()) & topo.AllMask()
		}
		if rng.Intn(4) == 0 {
			steps := 1 + rng.Intn(50)
			ctx.Pending = append(ctx.Pending, &sched.RequestState{
				Req: &workload.Request{
					ID:      workload.RequestID(nextID),
					Res:     resList[rng.Intn(len(resList))],
					Steps:   steps,
					Arrival: ctx.Now,
					SLO:     time.Duration(200+rng.Intn(6000)) * time.Millisecond,
				},
				Remaining: steps,
			})
			nextID++
		}
	}
}

// FuzzWarmStart is the incremental planner's equivalence fuzzer: whatever
// snapshot sequence the input derives, warm-start planning must be
// bit-identical to cold planning (DESIGN.md §12's determinism argument,
// enforced). Shares the FuzzPlanRound input shape so corpus entries transfer.
func FuzzWarmStart(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(0b1111))
	f.Add(uint64(7), uint8(2), uint8(12), uint8(0b0101))
	f.Add(uint64(99), uint8(3), uint8(15), uint8(0b1101))
	f.Fuzz(warmColdEquivalence)
}

// TestWarmColdEquivalence pins a deterministic battery of the same check so
// the property is exercised by plain `go test` runs beyond corpus replay.
func TestWarmColdEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		warmColdEquivalence(t, seed, uint8(seed), uint8(3*seed), uint8(seed>>1))
	}
}

// TestSeedCorpusCommitted pins the replay contract: the committed corpus
// under testdata/fuzz/ must exist and be non-empty for every target, because
// native Go fuzzing replays exactly those files as subtests of a plain
// `go test ./...` — deleting the corpus would silently drop regressions.
func TestSeedCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzPlanRound", "FuzzControlLoop", "FuzzElasticControlLoop", "FuzzWarmStart", "FuzzCacheAwarePlan"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil {
			t.Fatalf("%s corpus missing: %v", target, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s corpus is empty", target)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(data), "go test fuzz v1\n") {
				t.Fatalf("%s/%s is not a go-fuzz corpus entry", target, e.Name())
			}
		}
	}
}

// fuzzSimConfig derives a full simulation instance — trace, scheduler,
// faults — from fuzz primitives. Both runs of the same input must build
// identical configs.
func fuzzSimConfig(seed uint64, nReqSel, schedPick, faultPick, rateSel uint8) sim.Config {
	prof, topo := fuzzProfile(8)
	mdl := model.FLUX()
	nReq := 1 + int(nReqSel)%24
	rate := 6 + float64(rateSel%8)*8

	var sc sched.Scheduler
	switch schedPick % 5 {
	case 0:
		cfg := core.DefaultConfig()
		cfg.WallClock = frozenWall
		sc = core.NewScheduler(prof, topo, cfg)
	case 1:
		sc = sched.NewFixedSP(2)
	case 2:
		sc = sched.NewFixedSP(8)
	case 3:
		sc = sched.NewRSSP(8)
	default:
		sc = sched.NewEDF()
	}

	var faults []simgpu.Fault
	switch faultPick % 3 {
	case 1:
		faults = []simgpu.Fault{{GPU: simgpu.GPUID(faultPick % 8), FailAt: 10 * time.Second}}
	case 2:
		faults = []simgpu.Fault{
			{GPU: simgpu.GPUID(faultPick % 8), FailAt: 8 * time.Second, RecoverAt: 25 * time.Second},
			{GPU: simgpu.GPUID((faultPick + 3) % 8), FailAt: 15 * time.Second},
		}
	}

	return sim.Config{
		Model:     mdl,
		Topo:      topo,
		Scheduler: sc,
		Requests: workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         workload.UniformMix(),
			Arrivals:    workload.PoissonArrivals{PerMinute: rate},
			SLO:         workload.NewSLOPolicy(1.2),
			NumRequests: nReq,
			Seed:        seed,
		}),
		Profile:         prof,
		DropLateFactor:  4.0,
		Faults:          faults,
		CheckInvariants: true,
	}
}

// FuzzControlLoop runs seeded workload/fault instances through the full
// control loop with the oracle attached (strict mode: any invariant breach
// panics and the fuzzer records the input), then re-runs the same input and
// demands identical outcomes — end-to-end determinism of the whole stack.
func FuzzControlLoop(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(11), uint8(20), uint8(0), uint8(2), uint8(4))
	f.Add(uint64(5), uint8(8), uint8(3), uint8(0), uint8(1))
	f.Add(uint64(9), uint8(16), uint8(4), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, schedPick, faultPick, rateSel uint8) {
		run := func() *sim.Result {
			res, err := sim.Run(fuzzSimConfig(seed, nReqSel, schedPick, faultPick, rateSel))
			if err != nil {
				// Rigid fixed-degree policies can wedge when a fault shrinks
				// the cluster below their degree; the loop reports it rather
				// than spinning. That is a scheduler limitation by design,
				// not an invariant breach.
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Fatalf("control loop is nondeterministic:\n first: %+v\nsecond: %+v", a.Outcomes, b.Outcomes)
		}
		if a.Remaps != b.Remaps || a.RunsAborted != b.RunsAborted || a.Makespan != b.Makespan {
			t.Fatalf("control loop telemetry diverged: %+v vs %+v", a, b)
		}
	})
}

// fuzzResizes derives a planned capacity-change schedule from a fuzz
// primitive. Masks stay non-empty and inside the 8-GPU topology; shapes cover
// a lone shrink, shrink-then-restore, and a donate-from-the-top slice so the
// surviving mask is not always a prefix.
func fuzzResizes(resizePick uint8, topo *simgpu.Topology) []simgpu.Resize {
	all := topo.AllMask()
	keep := 1 + int(resizePick)%all.Count()
	switch resizePick % 4 {
	case 0:
		return nil
	case 1:
		return []simgpu.Resize{{At: 9 * time.Second, NewMask: simgpu.MaskRange(0, keep)}}
	case 2:
		return []simgpu.Resize{
			{At: 7 * time.Second, NewMask: simgpu.MaskRange(0, keep)},
			{At: 22 * time.Second, NewMask: all},
		}
	default:
		low := all
		for low.Count() > keep {
			low = low.Without(low.Highest())
		}
		return []simgpu.Resize{
			{At: 5 * time.Second, NewMask: all.Without(low)},
			{At: 18 * time.Second, NewMask: all},
		}
	}
}

// fuzzCacheSimConfig derives a simulation instance with the step-cache
// dimension enabled: always the TetriServe scheduler (the only policy with
// the cache knob), MaxCacheInterval from cacheSel, and per-request quality
// budgets varied deterministically from budgetSel (including 0 — caching
// forbidden — so the mix always exercises the legacy path too). Both runs of
// the same input must build identical configs.
func fuzzCacheSimConfig(seed uint64, nReqSel, faultPick, rateSel, cacheSel, budgetSel uint8) sim.Config {
	prof, topo := fuzzProfile(8)
	mdl := model.FLUX()
	nReq := 1 + int(nReqSel)%24
	rate := 6 + float64(rateSel%8)*8

	cfg := core.DefaultConfig()
	cfg.WallClock = frozenWall
	cfg.MaxCacheInterval = 2 + int(cacheSel)%7 // 2..8

	var faults []simgpu.Fault
	switch faultPick % 3 {
	case 1:
		faults = []simgpu.Fault{{GPU: simgpu.GPUID(faultPick % 8), FailAt: 10 * time.Second}}
	case 2:
		faults = []simgpu.Fault{
			{GPU: simgpu.GPUID(faultPick % 8), FailAt: 8 * time.Second, RecoverAt: 25 * time.Second},
			{GPU: simgpu.GPUID((faultPick + 3) % 8), FailAt: 15 * time.Second},
		}
	}

	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       mdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: rate},
		SLO:         workload.NewSLOPolicy(1.2),
		NumRequests: nReq,
		Seed:        seed,
	})
	for i, r := range reqs {
		// Budgets 0..Steps/2, spread across the trace so every run mixes
		// cache-forbidden, tight, and generous requests.
		r.QualityBudget = (int(budgetSel) + i*5) % (r.Steps/2 + 1)
	}

	return sim.Config{
		Model:           mdl,
		Topo:            topo,
		Scheduler:       core.NewScheduler(prof, topo, cfg),
		Requests:        reqs,
		Profile:         prof,
		DropLateFactor:  4.0,
		Faults:          faults,
		CheckInvariants: true,
	}
}

// FuzzCacheAwarePlan interleaves the step-cache knobs (MaxCacheInterval,
// per-request quality budgets) with faults and planned capacity resizes under
// the strict oracle: every plan's cached blocks must respect the quality
// budget and protection zone (RuleQuality), the quality ledger must conserve
// through aborts and preemptions, the whole run must replay bit-identically,
// and no finalized request may exceed its budget.
func FuzzCacheAwarePlan(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(2), uint8(2), uint8(4), uint8(0))
	f.Add(uint64(11), uint8(20), uint8(2), uint8(4), uint8(0), uint8(9), uint8(2))
	f.Add(uint64(5), uint8(8), uint8(1), uint8(1), uint8(6), uint8(0), uint8(3))
	f.Add(uint64(9), uint8(16), uint8(2), uint8(6), uint8(3), uint8(25), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, faultPick, rateSel, cacheSel, budgetSel, resizePick uint8) {
		run := func() *sim.Result {
			cfg := fuzzCacheSimConfig(seed, nReqSel, faultPick, rateSel, cacheSel, budgetSel)
			cfg.Resizes = fuzzResizes(resizePick, cfg.Topo)
			res, err := sim.Run(cfg)
			if err != nil {
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Fatalf("cache-aware loop is nondeterministic:\n first: %+v\nsecond: %+v", a.Outcomes, b.Outcomes)
		}
		if a.Resizes != b.Resizes || a.RunsPreempted != b.RunsPreempted ||
			a.RunsAborted != b.RunsAborted || a.Makespan != b.Makespan {
			t.Fatalf("cache-aware loop telemetry diverged: %+v vs %+v", a, b)
		}
		// Budget conservation, double-checked outside the oracle: the budget
		// each request was admitted with bounds its finalized approximation.
		budget := map[workload.RequestID]int{}
		for _, r := range fuzzCacheSimConfig(seed, nReqSel, faultPick, rateSel, cacheSel, budgetSel).Requests {
			budget[r.ID] = r.QualityBudget
		}
		for _, out := range a.Outcomes {
			if out.Approximated > budget[out.ID] {
				t.Fatalf("request %d approximated %d steps over its budget %d", out.ID, out.Approximated, budget[out.ID])
			}
		}
	})
}

// FuzzElasticControlLoop is FuzzControlLoop with planned capacity changes
// interleaved into the fault schedule: whatever resize/fault interleaving the
// input derives, the oracle must hold through every capacity transition and
// the whole run must replay bit-identically.
func FuzzElasticControlLoop(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(11), uint8(20), uint8(0), uint8(2), uint8(4), uint8(2))
	f.Add(uint64(5), uint8(8), uint8(1), uint8(1), uint8(1), uint8(3))
	f.Add(uint64(9), uint8(16), uint8(4), uint8(2), uint8(6), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, schedPick, faultPick, rateSel, resizePick uint8) {
		run := func() *sim.Result {
			cfg := fuzzSimConfig(seed, nReqSel, schedPick, faultPick, rateSel)
			cfg.Resizes = fuzzResizes(resizePick, cfg.Topo)
			res, err := sim.Run(cfg)
			if err != nil {
				// Shrinking the cluster below a rigid policy's degree wedges
				// it just like a fault does; the loop reports the deadlock
				// rather than spinning.
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Fatalf("elastic control loop is nondeterministic:\n first: %+v\nsecond: %+v", a.Outcomes, b.Outcomes)
		}
		if a.Resizes != b.Resizes || a.RunsPreempted != b.RunsPreempted ||
			a.RunsAborted != b.RunsAborted || a.Makespan != b.Makespan {
			t.Fatalf("elastic control loop telemetry diverged: %+v vs %+v", a, b)
		}
	})
}
