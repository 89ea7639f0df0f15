package sched

import (
	"fmt"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// TestValidatePlanMembership: the membership cases the TestValidatePlanCatches
// tests leave out — a running request, an ID repeated inside one assignment,
// and which error wins when a plan has two — each get their exact error.
func TestValidatePlanMembership(t *testing.T) {
	ids := func(ids ...int) []workload.RequestID {
		out := make([]workload.RequestID, len(ids))
		for i, id := range ids {
			out[i] = workload.RequestID(id)
		}
		return out
	}
	cases := []struct {
		name string
		plan []Assignment
		want string
	}{
		{"running", []Assignment{
			{Requests: ids(1), Group: simgpu.MaskOf(0), Steps: 1},
			{Requests: ids(3), Group: simgpu.MaskOf(1), Steps: 1},
		}, "sched: assignment 1 references unknown or running request 3"},
		{"duplicate within an assignment", []Assignment{{Requests: ids(1, 1), Group: simgpu.MaskOf(0), Steps: 1}},
			"sched: request 1 appears in two assignments"},
		{"unknown before duplicate", []Assignment{
			{Requests: ids(1), Group: simgpu.MaskOf(0), Steps: 1},
			{Requests: ids(7, 1), Group: simgpu.MaskOf(1), Steps: 1},
		}, "sched: assignment 1 references unknown or running request 7"},
	}
	pending := []*RequestState{
		mkState(2, model.Res256, 10, 0, 2*time.Second),
		mkState(1, model.Res256, 10, 0, 2*time.Second),
	}
	running := mkState(3, model.Res256, 10, 0, 2*time.Second)
	running.Running = true
	var c PlanChecker // reused across cases, as the control loop does
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := mkCtx(0, simgpu.MaskRange(0, 8), pending...)
			ctx.Running = []*RequestState{running}
			if err := c.Validate(ctx, tc.plan); fmt.Sprint(err) != tc.want {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestPlanCheckerMatchesMapIndex: on random contexts and plans — repeated
// pending IDs included — the checker returns exactly the error of a
// reference that indexes every pending request in a map.
func TestPlanCheckerMatchesMapIndex(t *testing.T) {
	rng := stats.NewRNG(41)
	resList := []model.Resolution{model.Res256, model.Res512}
	var c PlanChecker
	rejected := 0
	for trial := 0; trial < 3000; trial++ {
		var pending []*RequestState
		for i, n := 0, rng.Intn(12); i < n; i++ {
			st := mkState(1+rng.Intn(20), resList[rng.Intn(2)], 1+rng.Intn(10), 0, time.Second)
			st.Req.Steps = 20
			st.Req.QualityBudget = rng.Intn(8)
			pending = append(pending, st)
		}
		free := simgpu.MaskRange(0, 8)
		if rng.Intn(5) == 0 {
			free = simgpu.Mask(rng.Intn(256))
		}
		ctx := mkCtx(0, free, pending...)
		var plan []Assignment
		for i, n := 0, rng.Intn(5); i < n; i++ {
			// Mostly well-formed blocks naming pending requests, so the
			// membership and per-request checks are reached, not only the
			// structural ones.
			a := Assignment{
				Group: simgpu.CanonicalGroup(rng.Intn(8), 1),
				Steps: 1 + rng.Intn(10),
			}
			if rng.Intn(20) == 0 {
				a.Steps = 0
			}
			if rng.Intn(4) == 0 {
				a.CacheInterval = rng.Intn(4)
			}
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				id := workload.RequestID(1 + rng.Intn(20))
				if len(pending) > 0 && rng.Intn(4) != 0 {
					id = pending[rng.Intn(len(pending))].Req.ID
				}
				a.Requests = append(a.Requests, id)
			}
			plan = append(plan, a)
		}
		got, want := c.Validate(ctx, plan), validateWithMap(ctx, plan)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate = %v, reference = %v\nplan: %+v", trial, got, want, plan)
		}
		// A split context resolves IDs from its tiers instead; with distinct
		// pending IDs (as a control loop has) the verdict is the same.
		if distinctIDs(pending) {
			split := *ctx
			SplitPending(&split, plainLateness{})
			if got := c.Validate(&split, plan); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: Validate on the split context = %v, reference = %v\nplan: %+v", trial, got, want, plan)
			}
		}
		if got != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected == 3000 {
		t.Fatalf("%d of 3000 random plans rejected; the generator does not cover both outcomes", rejected)
	}
}

func distinctIDs(sts []*RequestState) bool {
	seen := map[workload.RequestID]bool{}
	for _, st := range sts {
		if seen[st.Req.ID] {
			return false
		}
		seen[st.Req.ID] = true
	}
	return true
}

// validateWithMap is PlanChecker.Validate with every pending request indexed
// in a map: the plainest statement of the checks, kept as the reference.
func validateWithMap(ctx *PlanContext, plan []Assignment) error {
	pending := map[workload.RequestID]*RequestState{}
	claimed := map[workload.RequestID]bool{}
	for _, st := range ctx.Pending {
		pending[st.Req.ID] = st
	}
	used := simgpu.Mask(0)
	for i := range plan {
		a := &plan[i]
		if err := a.Validate(ctx.Topo); err != nil {
			return err
		}
		if a.Group&^ctx.Free != 0 {
			return fmt.Errorf("sched: assignment %d uses busy GPUs %v", i, a.Group.Without(ctx.Free))
		}
		if used.Overlaps(a.Group) {
			return fmt.Errorf("sched: assignment %d overlaps another assignment on %v", i, a.Group)
		}
		used |= a.Group
		if c := a.CacheInterval; c > 1 && len(a.Requests) != 1 {
			return fmt.Errorf("sched: assignment %d caches at interval %d but batches %d requests", i, c, len(a.Requests))
		}
		var firstRes *RequestState
		for _, id := range a.Requests {
			st, ok := pending[id]
			if !ok {
				return fmt.Errorf("sched: assignment %d references unknown or running request %d", i, id)
			}
			if claimed[id] {
				return fmt.Errorf("sched: request %d appears in two assignments", id)
			}
			claimed[id] = true
			if len(a.Requests) == 1 && a.Steps > st.Remaining {
				return fmt.Errorf("sched: request %d assigned %d steps but only %d remain", id, a.Steps, st.Remaining)
			}
			if c := a.CacheInterval; c > 1 {
				if used := st.QualityUsed + ApproxSteps(a.Steps, c); used > st.Req.QualityBudget {
					return fmt.Errorf("sched: request %d would approximate %d steps over budget %d",
						id, used, st.Req.QualityBudget)
				}
				total := st.Req.Steps - st.Req.SkippedSteps
				done := total - st.Remaining
				if done < CacheProtectedSteps || done+a.Steps > total-CacheProtectedSteps {
					return fmt.Errorf("sched: request %d cached block [%d,%d) enters the protected first/last %d steps of %d",
						id, done, done+a.Steps, CacheProtectedSteps, total)
				}
			}
			if firstRes == nil {
				firstRes = st
			} else if firstRes.Req.Res != st.Req.Res {
				return fmt.Errorf("sched: batched assignment %d mixes resolutions %v and %v",
					i, firstRes.Req.Res, st.Req.Res)
			}
		}
	}
	return nil
}
