package sched

import (
	"strings"
	"testing"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// testProfile builds the FLUX/H100 lookup table once.
var testProfile = costmodel.BuildProfile(
	costmodel.NewEstimator(model.FLUX(), simgpu.H100x8()), costmodel.ProfilerConfig{})

// mkState builds a request state for tests.
func mkState(id int, res model.Resolution, remaining int, arrival, slo time.Duration) *RequestState {
	return &RequestState{
		Req: &workload.Request{
			ID:      workload.RequestID(id),
			Res:     res,
			Steps:   remaining,
			Arrival: arrival,
			SLO:     slo,
		},
		Remaining: remaining,
	}
}

func mkCtx(now time.Duration, free simgpu.Mask, pending ...*RequestState) *PlanContext {
	return &PlanContext{
		Now:     now,
		Free:    free,
		Pending: pending,
		Profile: testProfile,
		Topo:    simgpu.H100x8(),
	}
}

func TestRequestStateAvgDegree(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, time.Second)
	st.StepsByDegree.Add(1, 10)
	st.StepsByDegree.Add(4, 10)
	if got := st.AvgDegree(); got != 2.5 {
		t.Fatalf("AvgDegree = %v, want 2.5", got)
	}
	empty := mkState(2, model.Res512, 10, 0, time.Second)
	if empty.AvgDegree() != 0 {
		t.Fatal("empty degree history should average 0")
	}
}

func TestDefinitelyLate(t *testing.T) {
	// 2048px, 50 steps, fastest step ≈ 95ms → needs ≈4.8s.
	st := mkState(1, model.Res2048, 50, 0, 5*time.Second)
	if st.DefinitelyLate(0, testProfile) {
		t.Fatal("fresh 2048px request with 5s budget is not definitely late")
	}
	if !st.DefinitelyLate(time.Second, testProfile) {
		t.Fatal("with only 4s left, 50 steps at ≈95ms cannot finish")
	}
}

func TestStateClone(t *testing.T) {
	st := mkState(1, model.Res512, 5, 0, time.Second)
	st.StepsByDegree.Add(2, 3)
	c := st.Clone()
	c.StepsByDegree.Add(2, 99)
	c.Remaining = 1
	if st.StepsByDegree.Get(2) != 3 || st.Remaining != 5 {
		t.Fatal("Clone is not deep")
	}
}

func TestAssignmentValidate(t *testing.T) {
	topo := simgpu.H100x8()
	ok := Assignment{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 5}
	if err := ok.Validate(topo); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	bad := []Assignment{
		{Group: simgpu.MaskOf(0), Steps: 1},                                          // no requests
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 0},       // no steps
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1, 2), Steps: 1}, // size 3
	}
	for i, a := range bad {
		if err := a.Validate(topo); err == nil {
			t.Errorf("bad assignment %d accepted", i)
		}
	}
}

func TestValidatePlanCatchesBusyGPUs(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskOf(2, 3), st)
	plan := []Assignment{{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 1}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("busy GPUs not caught: %v", err)
	}
}

func TestValidatePlanCatchesOverlap(t *testing.T) {
	a := mkState(1, model.Res512, 10, 0, 2*time.Second)
	b := mkState(2, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 1},
		// Second group overlaps GPU 1.
		{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(1), Steps: 1},
	}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestValidatePlanCatchesUnknownRequest(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{{Requests: []workload.RequestID{99}, Group: simgpu.MaskOf(0), Steps: 1}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown request not caught: %v", err)
	}
}

func TestValidatePlanCatchesDoubleAssignment(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 1},
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(1), Steps: 1},
	}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "two assignments") {
		t.Fatalf("double assignment not caught: %v", err)
	}
}

func TestValidatePlanCatchesOverSteps(t *testing.T) {
	st := mkState(1, model.Res512, 3, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 5}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "remain") {
		t.Fatalf("over-steps not caught: %v", err)
	}
}

func TestValidatePlanAllowsBatchOversteps(t *testing.T) {
	a := mkState(1, model.Res256, 10, 0, 2*time.Second)
	b := mkState(2, model.Res256, 3, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0), Steps: 8}}
	if err := ValidatePlan(ctx, plan); err != nil {
		t.Fatalf("batched early-exit member rejected: %v", err)
	}
}

func TestValidatePlanCatchesMixedResolutionBatch(t *testing.T) {
	a := mkState(1, model.Res256, 10, 0, 2*time.Second)
	b := mkState(2, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0), Steps: 2}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "mixes resolutions") {
		t.Fatalf("mixed batch not caught: %v", err)
	}
}

// plainLateness is the cache-oblivious definitely-late rule of
// RequestState.DefinitelyLate, as a sched.Lateness.
type plainLateness struct{}

func (plainLateness) LateFrom(prof *costmodel.Profile, st *RequestState) time.Duration {
	tmin, _ := prof.MinStepTime(st.Req.Res)
	return st.Deadline() - time.Duration(st.Remaining)*tmin
}

// TestSplitPending: the split holds every pending request once, the
// on-time ones in Pending order and not late, the late ones past their
// LateFrom in deadline order with ties in Pending order; it reuses the
// slices it is handed and leaves Pending alone.
func TestSplitPending(t *testing.T) {
	rng := stats.NewRNG(17)
	resList := model.StandardResolutions()
	ctx := mkCtx(0, simgpu.MaskRange(0, 8))
	for trial := 0; trial < 500; trial++ {
		var pending []*RequestState
		for i, n := 0, rng.Intn(30); i < n; i++ {
			// Deadlines on a coarse grid so ties occur.
			slo := time.Duration(1+rng.Intn(8)) * 500 * time.Millisecond
			pending = append(pending, mkState(i, resList[rng.Intn(len(resList))], 1+rng.Intn(50), 0, slo))
		}
		ctx.Now = time.Duration(rng.Intn(4000)) * time.Millisecond
		ctx.Pending = append(pending[:0:0], pending...)
		SplitPending(ctx, plainLateness{})
		if !ctx.Split || len(ctx.OnTime)+len(ctx.Late) != len(pending) {
			t.Fatalf("split %v holds %d+%d of %d", ctx.Split, len(ctx.OnTime), len(ctx.Late), len(pending))
		}
		pos := map[*RequestState]int{}
		for i, st := range pending {
			pos[st] = i
			if ctx.Pending[i] != st {
				t.Fatal("SplitPending reordered Pending")
			}
		}
		for i, st := range ctx.OnTime {
			if st.DefinitelyLate(ctx.Now, testProfile) || (i > 0 && pos[ctx.OnTime[i-1]] >= pos[st]) {
				t.Fatalf("on-time entry %d (request %d) is late or out of order", i, st.Req.ID)
			}
			delete(pos, st)
		}
		for i, st := range ctx.Late {
			if !st.DefinitelyLate(ctx.Now, testProfile) {
				t.Fatalf("late entry %d (request %d) is on time", i, st.Req.ID)
			}
			if i > 0 {
				prev := ctx.Late[i-1]
				if prev.Deadline() > st.Deadline() || (prev.Deadline() == st.Deadline() && prev.Req.ID > st.Req.ID) {
					t.Fatalf("late entries %d and %d out of stable deadline order", i-1, i)
				}
			}
			delete(pos, st)
		}
		if len(pos) != 0 {
			t.Fatalf("%d pending requests in neither tier or listed twice", len(pos))
		}
	}
}
