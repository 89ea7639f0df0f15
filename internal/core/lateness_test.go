package core

import (
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/stats"
)

// definitelyLateReference is the two-branch definitely-late test LateFrom
// replaced, kept as the reference: late unless the plain bound holds from
// now or, with caching on, the best cache-assisted projection from now plus
// the rescue margin still meets the deadline.
func definitelyLateReference(s *Scheduler, prof *costmodel.Profile, st *sched.RequestState, now time.Duration) bool {
	tmin, _ := prof.MinStepTime(st.Req.Res)
	if now+time.Duration(st.Remaining)*tmin <= st.Deadline() {
		return false
	}
	if s.cfg.MaxCacheInterval <= 1 {
		return true
	}
	total := st.Req.Steps - st.Req.SkippedSteps
	done := total - st.Remaining
	budgetLeft := st.Req.QualityBudget - st.QualityUsed
	a := 0
	if budgetLeft > 0 {
		start := max(done, sched.CacheProtectedSteps)
		if span := total - sched.CacheProtectedSteps - start; span > 0 {
			a = min(sched.ApproxSteps(span, s.cfg.MaxCacheInterval), budgetLeft)
		}
	}
	best := time.Duration(st.Remaining-a)*tmin + time.Duration(float64(a)*prof.CachedStepRelCost()*float64(tmin))
	return now+best+s.tau/4 > st.Deadline()
}

// randLateState draws a request part-way through service: some steps
// skipped, some done, some quality already spent.
func randLateState(rng *stats.RNG, id int) *sched.RequestState {
	resList := model.StandardResolutions()
	steps := 10 + rng.Intn(190)
	st := mkState(id, resList[rng.Intn(len(resList))], steps, time.Duration(rng.Intn(10_000))*time.Millisecond,
		time.Duration(rng.Intn(60_000))*time.Millisecond)
	st.Req.Steps = steps
	st.Req.SkippedSteps = rng.Intn(steps/4 + 1)
	total := steps - st.Req.SkippedSteps
	st.Remaining = 1 + rng.Intn(total)
	st.Req.QualityBudget = rng.Intn(steps/2 + 1)
	st.QualityUsed = min(rng.Intn(st.Req.QualityBudget+1), total-st.Remaining)
	return st
}

// TestLateFromMatchesTwoBranchRule: over random requests and instants, with
// caching off and at every cache cap, "now > LateFrom" is exactly the
// two-branch rule it replaced — including at the threshold itself — and the
// reference is monotone in now: once late, late at every later instant.
func TestLateFromMatchesTwoBranchRule(t *testing.T) {
	rng := stats.NewRNG(97)
	for _, interval := range []int{1, 2, 4, 8} {
		s := newTestScheduler(t, func(c *Config) { c.MaxCacheInterval = interval })
		relieved := 0 // requests the cache term keeps on time past the plain bound
		for trial := 0; trial < 4000; trial++ {
			st := randLateState(rng, trial)
			from := s.LateFrom(testProf, st)
			if tmin, _ := testProf.MinStepTime(st.Req.Res); from > st.Deadline()-time.Duration(st.Remaining)*tmin {
				relieved++
			}
			for _, now := range []time.Duration{from - 1, from, from + 1} {
				if got, want := now > from, definitelyLateReference(s, testProf, st, now); got != want {
					t.Fatalf("interval %d, %+v (remaining %d, used %d) at %v: LateFrom %v says late=%v, reference %v",
						interval, *st.Req, st.Remaining, st.QualityUsed, now, from, got, want)
				}
			}
			late := false
			for now := st.Req.Arrival - 5*time.Second; now < st.Deadline()+10*time.Second; now += time.Duration(1+rng.Intn(400)) * time.Millisecond {
				ref := definitelyLateReference(s, testProf, st, now)
				if late && !ref {
					t.Fatalf("interval %d, request %d: late before %v but on time again at it", interval, trial, now)
				}
				late = ref
				if got := now > from; got != ref {
					t.Fatalf("interval %d, request %d at %v: LateFrom says late=%v, reference %v", interval, trial, now, got, ref)
				}
			}
		}
		if (interval > 1) != (relieved > 0) {
			t.Fatalf("interval %d: the cache term moved %d of 4000 thresholds", interval, relieved)
		}
	}
}

// TestPlanSplitsUnsplitContexts: Plan over a hand-built context equals Plan
// over the same context split by sched.SplitPending, and leaves the caller's
// context unsplit.
func TestPlanSplitsUnsplitContexts(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, interval := range []int{1, 4} {
		mk := func() *Scheduler { return newTestScheduler(t, func(c *Config) { c.MaxCacheInterval = interval }) }
		whole, split := mk(), mk()
		for round := 0; round < 200; round++ {
			var pending []*sched.RequestState
			for i, n := 0, 1+rng.Intn(24); i < n; i++ {
				pending = append(pending, randLateState(rng, i))
			}
			now := time.Duration(rng.Intn(20_000)) * time.Millisecond
			ctx := mkCtx(now, testTopo.AllMask(), pending...)
			pre := *ctx
			sched.SplitPending(&pre, split)
			got := testClonePlan(whole.Plan(ctx))
			if ctx.Split || ctx.OnTime != nil || ctx.Late != nil {
				t.Fatal("Plan split the caller's context in place")
			}
			if want := testClonePlan(split.Plan(&pre)); !reflect.DeepEqual(got, want) {
				t.Fatalf("interval %d round %d: unsplit plan %+v, pre-split plan %+v", interval, round, got, want)
			}
		}
	}
}
