package core

import (
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

func testClonePlan(plan []sched.Assignment) []sched.Assignment {
	out := make([]sched.Assignment, len(plan))
	for i, a := range plan {
		a.Requests = append([]workload.RequestID(nil), a.Requests...)
		out[i] = a
	}
	return out
}

// randCtx builds a randomized planning snapshot on the 8-GPU test topology.
func randCtx(rng *stats.RNG, n int) *sched.PlanContext {
	resList := model.StandardResolutions()
	now := time.Duration(rng.Intn(100000)) * time.Millisecond
	pending := make([]*sched.RequestState, 0, n)
	for i := 0; i < n; i++ {
		arrival := now - time.Duration(rng.Intn(4000))*time.Millisecond
		if arrival < 0 {
			arrival = 0
		}
		st := mkState(i+1, resList[rng.Intn(len(resList))], 1+rng.Intn(50),
			arrival, time.Duration(500+rng.Intn(8000))*time.Millisecond)
		if rng.Intn(4) == 0 {
			st.LastGroup = simgpu.CanonicalGroup(rng.Intn(4), 2)
		}
		pending = append(pending, st)
	}
	free := testTopo.AllMask()
	for g := 0; g < 8; g++ {
		if rng.Intn(4) == 0 {
			free = free.Without(simgpu.MaskOf(simgpu.GPUID(g)))
		}
	}
	return mkCtx(now, free, pending...)
}

// TestParallelPlanEquivalence: Workers>1 planning (parallel mix solves and
// strata-parallel DP rows) must be bit-identical to the sequential solve.
// The gate thresholds are lowered so the parallel paths run on instances
// small enough for a unit test.
func TestParallelPlanEquivalence(t *testing.T) {
	oldActive, oldCols := parallelMinActive, dpParallelMinCols
	parallelMinActive, dpParallelMinCols = 1, 2
	defer func() { parallelMinActive, dpParallelMinCols = oldActive, oldCols }()

	rng := stats.NewRNG(17)
	for trial := 0; trial < 60; trial++ {
		ctx := randCtx(rng, 1+rng.Intn(24))
		seq := newTestScheduler(t)
		par := newTestScheduler(t, func(c *Config) { c.Workers = 4 })
		sp := testClonePlan(seq.Plan(ctx))
		pp := testClonePlan(par.Plan(ctx))
		if !reflect.DeepEqual(sp, pp) {
			t.Fatalf("trial %d: parallel plan diverges from sequential:\n seq: %+v\n par: %+v", trial, sp, pp)
		}
	}
}

// TestWarmReplayGatedOnPreservation: with random placement, re-planning an
// unchanged snapshot must draw fresh placements exactly as a cold solve
// does — warm start may reuse DP rows but never skip the RNG draws that
// placement makes, or every later round would desynchronize.
func TestWarmReplayGatedOnPreservation(t *testing.T) {
	noPreserve := func(c *Config) { c.PlacementPreservation = false }
	warm := newTestScheduler(t, noPreserve)
	cold := newTestScheduler(t, noPreserve, func(c *Config) { c.WarmStart = false })
	var pending []*sched.RequestState
	for i := 0; i < 6; i++ {
		pending = append(pending, mkState(i+1, model.Res256, 50, 0, 30*time.Second))
	}
	ctx := mkCtx(0, testTopo.AllMask(), pending...)
	var plans [][]sched.Assignment
	for round := 0; round < 4; round++ {
		wp := testClonePlan(warm.Plan(ctx))
		if cp := testClonePlan(cold.Plan(ctx)); !reflect.DeepEqual(wp, cp) {
			t.Fatalf("round %d: warm plan diverges from cold:\n warm: %+v\n cold: %+v", round, wp, cp)
		}
		plans = append(plans, wp)
	}
	for _, p := range plans[1:] {
		if !reflect.DeepEqual(p, plans[0]) {
			return
		}
	}
	t.Fatal("random placement drew the same groups every round; the test does not exercise the RNG")
}

// TestWarmStartResumesDPRows: across rounds where only part of the pending
// set changes, the DP must reuse checkpointed rows.
func TestWarmStartResumesDPRows(t *testing.T) {
	s := newTestScheduler(t)
	var pending []*sched.RequestState
	for i := 0; i < 16; i++ {
		pending = append(pending, mkState(i+1, model.Res512, 50, 0, 30*time.Second))
	}
	ctx := mkCtx(0, testTopo.AllMask(), pending...)
	s.Plan(ctx)
	base := s.Warm().ResumedRows

	// Shrink only the LAST request's remaining steps: the candidate prefix
	// before it is unchanged, so its rows must be resumed, not recomputed.
	pending[len(pending)-1].Remaining = 10
	s.Plan(ctx)
	if got := s.Warm().ResumedRows - base; got == 0 {
		t.Fatal("DP resumed no rows across a single-request change")
	}
}

// TestWarmStartDisabledSolvesCold: with the knob off, no resumed rows, ever.
func TestWarmStartDisabledSolvesCold(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.WarmStart = false })
	ctx := mkCtx(0, testTopo.AllMask(), mkState(1, model.Res1024, 50, 0, 5*time.Second))
	s.Plan(ctx)
	s.Plan(ctx)
	w := s.Warm()
	if w.ResumedRows != 0 {
		t.Fatalf("WarmStart=false must solve cold, got %+v", w)
	}
}

// TestMixBudgetFloors: DeadlineBucket rounds budgets down (toward -∞, not
// toward zero) so quantized planning is strictly conservative.
func TestMixBudgetFloors(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.DeadlineBucket = 100 * time.Millisecond })
	cases := []struct{ in, want time.Duration }{
		{250 * time.Millisecond, 200 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond},
		{99 * time.Millisecond, 0},
		{-1 * time.Millisecond, -100 * time.Millisecond},
		{-100 * time.Millisecond, -100 * time.Millisecond},
		{-150 * time.Millisecond, -200 * time.Millisecond},
	}
	for _, c := range cases {
		if got := s.mixBudget(c.in); got != c.want {
			t.Fatalf("mixBudget(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s0 := newTestScheduler(t); s0.mixBudget(123456) != 123456 {
		t.Fatal("DeadlineBucket=0 must pass budgets through exactly")
	}
}

// TestDeadlineBucketPlansStayValid: bucketed budgets change which mixes are
// chosen but never the plan's structural validity.
func TestDeadlineBucketPlansStayValid(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 40; trial++ {
		ctx := randCtx(rng, 1+rng.Intn(12))
		s := newTestScheduler(t, func(c *Config) { c.DeadlineBucket = 250 * time.Millisecond })
		if err := sched.ValidatePlan(ctx, s.Plan(ctx)); err != nil {
			t.Fatalf("trial %d: bucketed plan invalid: %v", trial, err)
		}
	}
}

// TestZeroOptionPruning: option-less candidates are excluded from the DP
// without changing the emitted plan.
func TestZeroOptionPruning(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 40; trial++ {
		ctx := randCtx(rng, 1+rng.Intn(12))
		s := newTestScheduler(t)
		plan := testClonePlan(s.Plan(ctx))
		if s.Warm().PrunedCandidates > 0 {
			// Re-plan the identical snapshot cold and compare: pruning must
			// be invisible in the output.
			cold := newTestScheduler(t, func(c *Config) { c.WarmStart = false })
			if !reflect.DeepEqual(plan, testClonePlan(cold.Plan(ctx))) {
				t.Fatalf("trial %d: pruning changed the plan", trial)
			}
		}
	}
}

// TestPlanZeroAllocSteadyState is the planner-side allocation guard: once
// scratch reaches its high-water mark, Plan must not allocate — neither when
// re-planning an unchanged snapshot (every DP row resumes) nor on a full
// cold re-solve.
func TestPlanZeroAllocSteadyState(t *testing.T) {
	resList := model.StandardResolutions()
	mkPending := func() []*sched.RequestState {
		var pending []*sched.RequestState
		for i := 0; i < 64; i++ {
			pending = append(pending, mkState(i+1, resList[i%len(resList)], 50, 0, 5*time.Second))
		}
		return pending
	}

	t.Run("replay", func(t *testing.T) {
		s := newTestScheduler(t)
		ctx := mkCtx(0, testTopo.AllMask(), mkPending()...)
		s.Plan(ctx) // warm the scratch and the DP checkpoint
		if avg := testing.AllocsPerRun(100, func() { s.Plan(ctx) }); avg != 0 {
			t.Fatalf("re-planning an unchanged snapshot allocates %.1f times per call, want 0", avg)
		}
	})

	t.Run("cold", func(t *testing.T) {
		s := newTestScheduler(t, func(c *Config) { c.WarmStart = false })
		ctx := mkCtx(0, testTopo.AllMask(), mkPending()...)
		s.Plan(ctx)
		s.Plan(ctx)
		if avg := testing.AllocsPerRun(100, func() { s.Plan(ctx) }); avg != 0 {
			t.Fatalf("cold Plan allocates %.1f times per call, want 0", avg)
		}
	})

	// Step-cache dimension: every other request is reshaped so no plain
	// option survives but a cache-assisted tail clears the deadline, and
	// warm start is off so every call rebuilds candidates through the full
	// rescue path (per-option cache intervals, budget clipping,
	// cacheFeasibleAt). Cached variants must alias the candidate's fixed
	// option buffer — the knob may not reintroduce allocation.
	t.Run("cached", func(t *testing.T) {
		s := newTestScheduler(t, func(c *Config) {
			c.WarmStart = false
			c.MaxCacheInterval = 4
		})
		pending := mkPending()
		for i, st := range pending {
			if i%2 == 0 {
				continue
			}
			reshapeRescue(st, 4)
		}
		ctx := mkCtx(0, testTopo.AllMask(), pending...)
		s.Plan(ctx)
		s.Plan(ctx)
		rescued := false
		for _, a := range s.Plan(ctx) {
			if a.CacheInterval > 1 {
				rescued = true
				break
			}
		}
		if !rescued {
			t.Fatal("no cache-assisted assignment planned; the guard is not exercising the rescue path")
		}
		if avg := testing.AllocsPerRun(100, func() { s.Plan(ctx) }); avg != 0 {
			t.Fatalf("cache-enabled Plan allocates %.1f times per call, want 0", avg)
		}
	})
}

// reshapeRescue makes st deadline-infeasible at interval 1 but rescuable at
// maxInterval within a budget of half its steps: 20 of 200 steps computed,
// the SLO placed between the best cached projection (plus ample rescue
// margin) and the plain-service lower bound.
func reshapeRescue(st *sched.RequestState, maxInterval int) {
	const steps, remaining, budget = 200, 180, 100
	tmin, _ := testProf.MinStepTime(st.Req.Res)
	done := steps - remaining
	start := done
	if start < sched.CacheProtectedSteps {
		start = sched.CacheProtectedSteps
	}
	a := sched.ApproxSteps(steps-sched.CacheProtectedSteps-start, maxInterval)
	if a > budget {
		a = budget
	}
	gamma := testProf.CachedStepRelCost()
	bound := time.Duration(remaining-a)*tmin +
		time.Duration(float64(a)*gamma*float64(tmin))
	st.Req.Steps = steps
	st.Req.SLO = bound + 300*time.Millisecond
	st.Req.QualityBudget = budget
	st.Remaining = remaining
}
