// Package core implements the paper's contribution: TetriServe's
// deadline-aware round-based scheduler (§4).
//
// Every round of duration τ the scheduler:
//
//  1. splits pending requests into active ones and definitely-late ones
//     (the latter go to a ≤1-GPU best-effort lane, §4.2.2);
//  2. computes, per active request, the minimal-GPU-hour mix of
//     sequence-parallel degrees that still meets its deadline (§4.2.1);
//  3. packs requests into the round with the group-knapsack dynamic
//     program of Algorithm 1, maximizing the number of requests that
//     survive (are not definitely late at the next round boundary);
//  4. maps the chosen degrees onto concrete GPU groups with placement
//     preservation, merges small same-resolution SP=1 selections through
//     selective continuous batching, and grants leftover GPUs via
//     work-conserving elastic scale-up (§4.2.3, §5).
package core

import (
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
)

// Config selects TetriServe's mechanisms; zero value = paper defaults via
// NewScheduler.
type Config struct {
	// StepGranularity is how many reference steps one round holds (§6.4,
	// Figure 15). The reference step is the fastest step of the most
	// expensive profiled resolution, so the largest requests advance at
	// least StepGranularity steps per round. Default 5.
	StepGranularity int
	// MaxRound caps τ so coarse granularities on slow hardware do not
	// starve short-SLO requests of admission. Default 1 s.
	MaxRound time.Duration
	// SchedOverhead is the control-plane cost charged at the start of each
	// round (DP + dispatch); it shrinks the usable round window and is what
	// makes 1-step granularity lose under load. Default 8 ms.
	SchedOverhead time.Duration
	// PlacementPreservation keeps requests on their previous GPU sets
	// across rounds (ablated in Table 5). Default on.
	PlacementPreservation bool
	// ElasticScaleUp grants idle GPUs to placed requests that benefit
	// (ablated in Table 5). Default on.
	ElasticScaleUp bool
	// SelectiveBatching merges small same-resolution SP=1 selections when
	// no member's deadline is compromised (§5). Default on.
	SelectiveBatching bool
	// MaxBatch bounds the continuous-batching width. Default 4.
	MaxBatch int
	// BestEffortLane runs already-late requests on leftover single GPUs
	// (§4.2.2). Default on.
	BestEffortLane bool
	// BestEffortGPUs caps the lane's total GPUs per round so lingering
	// late requests cannot starve on-time ones ("without impacting other
	// requests"). Elastic scale-up may still grow them when GPUs idle.
	// Default 2.
	BestEffortGPUs int
	// EagerAdmission additionally invokes the planner when a request
	// arrives and GPUs are idle, instead of waiting for the next round
	// boundary; rounds re-anchor to the new block. This is the
	// work-conserving counterpart of elastic scale-up for admission and
	// matters most for near-deadline large requests on an idle cluster.
	// Default on.
	EagerAdmission bool
	// QuantizationAwareMix makes the §4.2.1 allocator cost degrees by
	// their *effective* per-step time under round execution (window/q
	// instead of T(k)), steering the mix away from degrees whose steps
	// tile the round poorly. Default on; off reproduces a naive
	// profile-time allocator for the extensions ablation.
	QuantizationAwareMix bool
	// BatchTokenCap limits batching to resolutions at or below this token
	// count — batching only pays for requests that underutilize a GPU.
	// Default 1024 tokens (≤ 512×512).
	BatchTokenCap int
	// WarmStart enables the incremental planning layer: a prefix-resumable
	// DP that keeps the previous round's value table and re-solves only the
	// candidate rows after the first one that changed. It is bit-identical
	// to a cold solve — see DESIGN.md §12 — so the knob only trades memory
	// for control-plane latency. Default on.
	WarmStart bool
	// WarmStartMinReuse is the minimum number of matching prefix candidates
	// required before the DP resumes from a checkpoint; below it the solve
	// runs cold (a tiny reusable prefix is not worth the bookkeeping).
	// Default 0 (any reusable prefix is taken).
	WarmStartMinReuse int
	// DeadlineBucket, when positive, rounds each request's deadline budget
	// DOWN to a multiple of the bucket before the §4.2.1 mix solve. The
	// quantized budget is used both as the memo key and as the solve input,
	// so planning stays self-consistent and strictly conservative (a
	// request is never given more slack than it has) while near-identical
	// deadlines collapse onto one memo entry — the candidate-pruning lever
	// for 10k-deep queues. Default 0 (exact budgets, paper behavior).
	DeadlineBucket time.Duration
	// MaxCacheInterval caps the step-cache cadence the planner may assign:
	// at interval c, one step in c runs fully and the rest reuse cached
	// features at the profile's discounted cost. The planner spends a
	// request's quality budget (Request.QualityBudget) only to flip an
	// otherwise-infeasible deadline, never inside the first/last
	// sched.CacheProtectedSteps steps. Default 1 (caching off — planning is
	// bit-identical to the cache-oblivious scheduler).
	MaxCacheInterval int
	// Workers, when > 1, parallelizes candidate construction (the
	// per-request mix solves) and wide DP row updates across goroutines.
	// The merge order is fixed, so plans are bit-identical to the
	// sequential solve. Default 0 (sequential).
	Workers int
	// Seed feeds the random placement used when preservation is off.
	Seed uint64
	// WallClock supplies the time source for the plan-latency diagnostic
	// (Table 6). Defaults to time.Now; deterministic harnesses inject a
	// fake clock so a Plan call never reads the wall.
	WallClock func() time.Time
}

// DefaultConfig returns the paper's default mechanism set.
func DefaultConfig() Config {
	return Config{
		StepGranularity:       5,
		MaxRound:              time.Second,
		SchedOverhead:         8 * time.Millisecond,
		PlacementPreservation: true,
		ElasticScaleUp:        true,
		SelectiveBatching:     true,
		MaxBatch:              4,
		BestEffortLane:        true,
		BestEffortGPUs:        2,
		EagerAdmission:        true,
		QuantizationAwareMix:  true,
		BatchTokenCap:         1024,
		WarmStart:             true,
		MaxCacheInterval:      1,
		Seed:                  7,
	}
}

// MaxCacheIntervalCap bounds the cache cadence: beyond one full step in
// eight, approximation error compounds past what any quality budget should
// license (and the DP fingerprint packs the interval in 4 bits). Config
// values above the cap are clamped; flag parsers should reject them loudly.
const MaxCacheIntervalCap = 8

func (c *Config) normalize() {
	if c.StepGranularity <= 0 {
		c.StepGranularity = 5
	}
	if c.MaxRound <= 0 {
		c.MaxRound = time.Second
	}
	if c.SchedOverhead < 0 {
		c.SchedOverhead = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.BestEffortGPUs <= 0 {
		c.BestEffortGPUs = 2
	}
	if c.BatchTokenCap <= 0 {
		c.BatchTokenCap = 1024
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.WarmStartMinReuse < 0 {
		c.WarmStartMinReuse = 0
	}
	if c.MaxCacheInterval < 1 {
		c.MaxCacheInterval = 1
	}
	if c.MaxCacheInterval > MaxCacheIntervalCap {
		c.MaxCacheInterval = MaxCacheIntervalCap
	}
	if c.DeadlineBucket < 0 {
		c.DeadlineBucket = 0
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.WallClock == nil {
		c.WallClock = time.Now
	}
}

// Scheduler is TetriServe's round-based scheduler. It implements
// sched.Scheduler and is driven at fixed round boundaries.
//
// A Scheduler is NOT safe for concurrent use: Plan reuses per-round scratch
// buffers (see scratch.go), and the returned plan aliases them, remaining
// valid only until the next Plan call. Drive each Scheduler from a single
// goroutine — the simulator, the live server loop, and the parallel
// experiment harness (one scheduler per cell) all do.
type Scheduler struct {
	cfg  Config
	prof *costmodel.Profile
	topo *simgpu.Topology
	tau  time.Duration
	rng  *stats.RNG

	// scratch holds the zero-alloc hot-path buffers reused across rounds.
	scratch planScratch

	// Diagnostics exported for experiments.
	roundsPlanned     int
	placementFailures int
	lastPlanLatency   time.Duration

	// Warm-start diagnostics (see dp.go).
	warmRows    int
	coldRows    int
	prunedCands int
}

// WarmStats summarizes the incremental-planning layer's effectiveness.
type WarmStats struct {
	// ResumedRows counts DP candidate rows reused from a previous round's
	// checkpoint table.
	ResumedRows int
	// ColdRows counts DP candidate rows computed from scratch.
	ColdRows int
	// PrunedCandidates counts option-less candidates excluded from the DP
	// (their contribution is a uniform value shift — see prune.go).
	PrunedCandidates int
}

// NewScheduler builds a TetriServe scheduler for the profiled cluster.
func NewScheduler(prof *costmodel.Profile, topo *simgpu.Topology, cfg Config) *Scheduler {
	cfg.normalize()
	s := &Scheduler{
		cfg:  cfg,
		prof: prof,
		topo: topo,
		rng:  stats.NewRNG(cfg.Seed),
	}
	s.tau = s.computeRound()
	return s
}

// computeRound derives τ: StepGranularity × the fastest per-step time of the
// most expensive profiled resolution, plus the control-plane overhead so the
// usable window holds exactly StepGranularity reference steps, capped at
// MaxRound. Rounds sized this way let every resolution complete an integral
// number of steps near the boundary, minimizing idle bubbles (§4.2.2 "Round
// Duration").
func (s *Scheduler) computeRound() time.Duration {
	var refRes model.Resolution
	refTokens := -1
	for _, res := range s.prof.Resolutions() {
		if t := res.Pixels(); t > refTokens {
			refTokens = t
			refRes = res
		}
	}
	ref, _ := s.prof.MinStepTime(refRes)
	tau := time.Duration(s.cfg.StepGranularity)*ref + s.cfg.SchedOverhead
	if tau > s.cfg.MaxRound {
		tau = s.cfg.MaxRound
	}
	if tau < ref+s.cfg.SchedOverhead {
		tau = ref + s.cfg.SchedOverhead
	}
	return tau
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "TetriServe" }

// RoundDuration implements sched.Scheduler: the fixed round length τ.
func (s *Scheduler) RoundDuration() time.Duration { return s.tau }

// Overhead reports the per-round control-plane budget; the simulator
// charges it as dispatch delay so blocks occupy τ end to end.
func (s *Scheduler) Overhead() time.Duration { return s.cfg.SchedOverhead }

// EagerAdmission reports whether the driver should also invoke Plan on
// request arrival (in addition to round boundaries).
func (s *Scheduler) EagerAdmission() bool { return s.cfg.EagerAdmission }

// MaxCacheInterval reports the configured step-cache cap (1 = caching off).
// The control loop's feasibility probe asserts for this method to project
// cache-assisted service times without depending on the concrete type.
func (s *Scheduler) MaxCacheInterval() int { return s.cfg.MaxCacheInterval }

// Rounds returns how many rounds have been planned (diagnostics).
func (s *Scheduler) Rounds() int { return s.roundsPlanned }

// PlacementFailures counts DP selections that could not be mapped onto
// aligned free groups (diagnostics; should stay near zero).
func (s *Scheduler) PlacementFailures() int { return s.placementFailures }

// LastPlanLatency reports wall-clock time of the most recent Plan call —
// the control-plane latency Table 6 compares against exhaustive search.
func (s *Scheduler) LastPlanLatency() time.Duration { return s.lastPlanLatency }

// Warm returns the incremental-planning diagnostics.
func (s *Scheduler) Warm() WarmStats {
	return WarmStats{
		ResumedRows:      s.warmRows,
		ColdRows:         s.coldRows,
		PrunedCandidates: s.prunedCands,
	}
}

// window returns the usable execution window within a round.
func (s *Scheduler) window() time.Duration { return s.tau - s.cfg.SchedOverhead }

// Plan implements sched.Scheduler for one round (Algorithm 1 plus the
// §4.2.3 placement/elastic extensions). The returned plan (including its
// Requests slices) aliases the scheduler's reusable scratch and is valid
// only until the next Plan call; callers that retain assignments across
// rounds must copy them (the engine does).
func (s *Scheduler) Plan(ctx *sched.PlanContext) []sched.Assignment {
	started := s.cfg.WallClock()
	defer func() {
		s.lastPlanLatency = s.cfg.WallClock().Sub(started)
		s.roundsPlanned++
	}()

	tNext := ctx.Now + s.tau
	s.beginPlan(ctx.Profile)
	sc := &s.scratch

	// Partition pending requests into active and definitely-late.
	for _, st := range ctx.Pending {
		if s.definitelyLate(ctx.Profile, st, ctx.Now) {
			sc.late = append(sc.late, st)
		} else {
			sc.active = append(sc.active, st)
		}
	}

	// Stage 1: deadline-aware minimal-GPU-hour allocation per request.
	// All plan-time lookups go through ctx.Profile so a live server may
	// extend the table (on-demand profiling) without rebuilding schedulers.
	// Candidates live in the scratch arena; the arena is sized up front so
	// the pointers taken here stay valid.
	if s.cfg.Workers > 1 && len(sc.active) >= parallelMinActive {
		s.buildCandidatesParallel(ctx.Profile, ctx.Now, tNext)
	} else {
		arena := sc.grabCandidates(len(sc.active))
		for i, st := range sc.active {
			c := &arena[i]
			if s.buildCandidate(ctx.Profile, ctx.Now, tNext, st, c) {
				sc.cands = append(sc.cands, c)
			}
		}
	}

	// Stage 2: group-knapsack DP over the free capacity, after excluding
	// candidates that cannot affect the packing (prune.go).
	capGPUs := ctx.Free.Count()
	chosen := s.packDP(s.pruneCandidates(sc.cands), capGPUs)

	// Stage 3: placement, batching, elastic scale-up, best-effort lane.
	return s.assemble(ctx, chosen, sc.cands, sc.late)
}

var _ sched.Scheduler = (*Scheduler)(nil)
