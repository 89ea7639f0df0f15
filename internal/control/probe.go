package control

import (
	"fmt"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sched"
)

// Feasibility is the read-only deadline projection the admission router
// consults before placing a request on a loop: given the loop's current
// backlog and health, when would a hypothetical request of this shape
// plausibly start and finish, and can it still win its SLO?
//
// The projection is a fluid-model bound, deliberately built from the same
// quantities the scheduler itself reasons with (the offline profile's
// T(res,k) table, Algorithm 1's T_min survival bound) and nothing else:
//
//   - queue wait: the backlog's cheapest-possible GPU·seconds (each tracked
//     request costed at its GPU-hour-optimal degree, min_k k·T(res,k))
//     spread over the healthy devices;
//   - boundary wait: one τ when a round-based loop cannot admit eagerly
//     (eager admission off or no free GPUs), zero otherwise — mirroring the
//     loop's own arrival-path planning condition;
//   - service: remaining steps at the fastest profiled per-step time
//     (T_i^min, the same optimistic bound DefinitelyLate uses), plus the
//     per-block dispatch overhead.
//
// VAE decode is excluded, like the round explainer's survival verdict — the
// decode queue is execution-side state the control plane does not project.
// The probe is therefore optimistic: Winnable == false is a sound
// early-reject signal ("cannot win even under best-case packing"), while
// Winnable == true is a forecast, not a guarantee.
type Feasibility struct {
	// Now is the loop clock at probe time; Deadline is Now + the probed SLO.
	Now      time.Duration
	Deadline time.Duration
	// ProjectedStart/ProjectedFinish bound the hypothetical request's
	// execution window under the fluid model.
	ProjectedStart  time.Duration
	ProjectedFinish time.Duration
	// Winnable reports ProjectedFinish ≤ Deadline.
	Winnable bool
	// Slack is Deadline − ProjectedFinish (negative when not winnable: how
	// late the request would land at best).
	Slack time.Duration
	// QueueGPUSeconds is the tracked backlog's cheapest-possible GPU·seconds;
	// ServiceGPUSeconds is the probed request's own cheapest cost (the
	// router's fair-share ledger currency).
	QueueGPUSeconds   float64
	ServiceGPUSeconds float64
	// Pending/Running count tracked requests; HealthyGPUs/FreeGPUs describe
	// capacity at probe time.
	Pending     int
	Running     int
	HealthyGPUs int
	FreeGPUs    int
	// MinStepTime and MinStepDegree are the profile's fastest per-step
	// latency for the probed resolution and the degree achieving it.
	MinStepTime   time.Duration
	MinStepDegree int
	// MaxCacheInterval is the shard scheduler's step-cache ceiling (1 when
	// the scheduler does not expose or enable the cache dimension). When it
	// exceeds 1, CachedFinish projects the best cache-assisted completion —
	// every approximable step (outside the protected first/last
	// sched.CacheProtectedSteps) served at the discounted cost — and
	// CachedWinnable reports CachedFinish ≤ Deadline. With caching off both
	// mirror ProjectedFinish/Winnable exactly, so consumers that read the
	// cached projection behave bit-identically on cache-oblivious shards.
	MaxCacheInterval int
	CachedFinish     time.Duration
	CachedWinnable   bool
}

// ProbeFeasibility projects deadline feasibility for a hypothetical request
// (res, steps, slo) against the loop's current state without mutating any of
// it: no tracker insert, no scheduler invocation, no engine transition — the
// warm-start planner's caches, the decode queue, and the pending order are
// all untouched, so probing is invisible to subsequent plans (the property
// the router's no-mutation test pins down).
//
// steps ≤ 0 defaults to the model's step count. Unknown resolutions return
// an error: feasibility of an uncalibrated shape is undefined, and the
// router maps this to a client error rather than a 429.
//
// Like every other Loop method, ProbeFeasibility must run on the goroutine
// that owns the loop (the driver exposes it via a channel round-trip).
func (l *Loop) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (Feasibility, error) {
	if !l.cfg.Profile.Has(res) {
		return Feasibility{}, fmt.Errorf("control: %v not in profile", res)
	}
	if steps <= 0 {
		steps = l.cfg.Model.DefaultSteps
	}
	now := l.clk.Now()
	f := Feasibility{
		Now:         now,
		Deadline:    now + slo,
		HealthyGPUs: l.eng.HealthyGPUs(),
		FreeGPUs:    l.eng.Free().Count(),
		Running:     len(l.running),
	}
	// Degrees the shard cannot form (profile calibrated on the full node,
	// capacity elastically shrunk below it) must not leak into the bound, or
	// a 2-GPU shard would promise 8-way step times it can never run.
	f.MinStepTime, f.MinStepDegree = l.minStepTimeWithin(res, f.HealthyGPUs)
	f.ServiceGPUSeconds = float64(steps) * l.minGPUSecondsWithin(res, f.HealthyGPUs)
	f.MaxCacheInterval = l.maxCacheInterval()
	if f.HealthyGPUs <= 0 {
		// A fully failed pool can never win; pin the projection at the
		// deadline horizon so Slack reports "late by the whole budget".
		f.ProjectedStart = f.Deadline
		f.ProjectedFinish = f.Deadline + slo
		f.Slack = f.Deadline - f.ProjectedFinish
		f.CachedFinish = f.ProjectedFinish
		return f, nil
	}

	// Backlog: every tracked, unfinished request costed at its cheapest
	// profiled degree. The pending list never holds a finalized request;
	// it is filtered like snapshotPending's plannable set, and running
	// requests are counted by their remaining steps only.
	var backlog float64
	for _, st := range l.pending {
		if st.Running || st.Remaining <= 0 {
			continue
		}
		f.Pending++
		backlog += float64(st.Remaining) * l.minGPUSecondsWithin(st.Req.Res, f.HealthyGPUs)
	}
	for _, st := range l.running {
		if st.Remaining <= 0 {
			continue
		}
		backlog += float64(st.Remaining) * l.minGPUSecondsWithin(st.Req.Res, f.HealthyGPUs)
	}
	f.QueueGPUSeconds = backlog
	queueWait := time.Duration(backlog / float64(f.HealthyGPUs) * float64(time.Second))

	// Boundary wait mirrors the arrival path's planning condition: a
	// non-round-based loop plans on every arrival, and an eager round-based
	// loop plans immediately whenever a GPU is free; otherwise the request
	// waits out the current round.
	var boundary time.Duration
	if l.roundBased && !(l.eager && l.eng.Free() != 0) {
		boundary = l.tau
	}

	f.ProjectedStart = now + boundary + queueWait
	f.ProjectedFinish = f.ProjectedStart + time.Duration(steps)*f.MinStepTime + l.dispatchDelay()
	f.Winnable = f.ProjectedFinish <= f.Deadline
	f.Slack = f.Deadline - f.ProjectedFinish

	// Cache-assisted projection: the same fluid bound with every approximable
	// step (outside the protected first/last N, ignoring any per-request
	// budget — the probed request is hypothetical and has none yet) served at
	// the γ-discounted cost. With caching off this collapses to the plain
	// projection exactly (a = 0 path is not taken; the fields are copied).
	f.CachedFinish = f.ProjectedFinish
	f.CachedWinnable = f.Winnable
	if f.MaxCacheInterval > 1 {
		a := sched.ApproxSteps(steps-2*sched.CacheProtectedSteps, f.MaxCacheInterval)
		if a > 0 {
			gamma := l.cfg.Profile.CachedStepRelCost()
			service := time.Duration(steps-a)*f.MinStepTime +
				time.Duration(float64(a)*gamma*float64(f.MinStepTime))
			f.CachedFinish = f.ProjectedStart + service + l.dispatchDelay()
			f.CachedWinnable = f.CachedFinish <= f.Deadline
		}
	}
	return f, nil
}

// maxCacheInterval reports the scheduler's step-cache ceiling via an optional
// interface assertion (core.Scheduler exposes MaxCacheInterval; baselines do
// not and probe as cache-oblivious).
func (l *Loop) maxCacheInterval() int {
	if s, ok := l.cfg.Scheduler.(interface{ MaxCacheInterval() int }); ok {
		if c := s.MaxCacheInterval(); c > 1 {
			return c
		}
	}
	return 1
}

// minGPUSecondsWithin is the cheapest profiled per-step GPU·seconds for res
// over degrees the shard can actually form (k ≤ maxK) — min_k k·T(res,k),
// the §4.2.1 GPU-hour floor a perfectly packed schedule approaches. When no
// profiled degree fits (maxK below the smallest calibrated degree) the
// smallest degree is used so the projection stays finite and deterministic.
func (l *Loop) minGPUSecondsWithin(res model.Resolution, maxK int) float64 {
	best, found := 0.0, false
	for i, k := range l.cfg.Profile.Degrees() {
		if k > maxK && i > 0 {
			break // degrees are sorted ascending; keep i==0 as the fallback
		}
		if g := l.cfg.Profile.GPUSeconds(res, k); !found || g < best {
			best = g
			found = true
		}
	}
	return best
}

// minStepTimeWithin is Profile.MinStepTime restricted to degrees ≤ maxK,
// with the same smallest-degree fallback as minGPUSecondsWithin.
func (l *Loop) minStepTimeWithin(res model.Resolution, maxK int) (time.Duration, int) {
	var bestT time.Duration
	bestK, found := 0, false
	for i, k := range l.cfg.Profile.Degrees() {
		if k > maxK && i > 0 {
			break
		}
		if t := l.cfg.Profile.StepTime(res, k); !found || t < bestT {
			bestT, bestK = t, k
			found = true
		}
	}
	return bestT, bestK
}
