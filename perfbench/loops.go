package main

import (
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/workload"
)

// loopStats accumulates control-loop results into what the metrics need,
// so a run keeps summaries rather than whole results.
type loopStats struct {
	outcomes, met int
	// latency holds completed requests' arrival→completion times (virtual
	// seconds); wait their arrival→first-block times.
	latency, wait []float64
	busy          float64
	// ownedGPUSeconds is the GPU time the loops owned (GPUs × makespan).
	ownedGPUSeconds float64

	planCalls, ticks, blocks, planRejected, startFailed, preempted int
	rescued, approx                                                int
	degreeSteps, steps                                             float64
}

// add folds one run's loop results in; gpus is how many GPUs the loops own
// together.
func (s *loopStats) add(results []*control.Result, gpus int) {
	var makespan time.Duration
	for _, r := range results {
		makespan = max(makespan, r.Makespan)
		s.busy += r.GPUBusySeconds
		s.planCalls += r.PlanCalls
		s.ticks += r.RoundTicks
		s.blocks += len(r.Runs)
		s.planRejected += r.PlanRejected
		s.startFailed += r.StartFailed
		s.preempted += r.RunsPreempted
		firstStart := make(map[workload.RequestID]time.Duration, len(r.Outcomes))
		for _, run := range r.Runs {
			s.degreeSteps += float64(run.Degree * run.Steps)
			s.steps += float64(run.Steps)
			for _, id := range run.Requests {
				if t, ok := firstStart[id]; !ok || run.Start < t {
					firstStart[id] = run.Start
				}
			}
		}
		for _, oc := range r.Outcomes {
			s.outcomes++
			if oc.Met {
				s.met++
				if oc.Approximated > 0 {
					s.rescued++
				}
			}
			s.approx += oc.Approximated
			if !oc.Dropped {
				s.latency = append(s.latency, oc.Latency.Seconds())
			}
			// Admission happens at arrival, so the time to the first block
			// is the queue wait.
			if t, ok := firstStart[oc.ID]; ok {
				s.wait = append(s.wait, (t - oc.Arrival).Seconds())
			}
		}
	}
	s.ownedGPUSeconds += float64(gpus) * makespan.Seconds()
}

// layers reports the control-loop, planner-count and engine metrics.
func (s *loopStats) layers(m metricSet) {
	m.set("core.plan_calls", float64(s.planCalls))
	m.set("core.rescued_reqs", float64(s.rescued))
	m.set("core.approx_steps", float64(s.approx))
	m.set("control.round_ticks", float64(s.ticks))
	m.set("control.blocks", float64(s.blocks))
	m.set("control.plan_rejected", float64(s.planRejected))
	m.set("control.start_failed", float64(s.startFailed))
	m.set("control.queue_wait_p50_s", quantile(s.wait, 0.5))
	m.set("control.queue_wait_p99_s", quantile(s.wait, 0.99))
	m.set("engine.mean_degree", ratio(s.degreeSteps, s.steps))
	m.set("engine.gpu_busy_share", ratio(s.busy, s.ownedGPUSeconds))
	m.set("engine.preempted_runs", float64(s.preempted))
}

// planLayers reports the core.Plan spans: latency, queue depth, and their
// total as a share of wall; it returns the share.
func planLayers(m metricSet, spans []span, wall time.Duration) float64 {
	var plan []time.Duration
	var depth []float64
	for _, s := range spans {
		if s.Name == "core.Plan" {
			plan = append(plan, s.dur())
			depth = append(depth, float64(s.Depth))
		}
	}
	share := ratio(sum(plan).Seconds(), wall.Seconds())
	m.set("core.plan_us_p50", quantile(microseconds(plan), 0.5))
	m.set("core.plan_us_p99", quantile(microseconds(plan), 0.99))
	m.set("core.plan_share", share)
	m.set("core.queue_depth_p50", quantile(depth, 0.5))
	m.set("core.queue_depth_p99", quantile(depth, 0.99))
	return share
}
