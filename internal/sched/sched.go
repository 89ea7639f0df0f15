// Package sched defines the scheduling contract shared by TetriServe and
// every baseline (fixed-SP xDiT, RSSP, EDF, exhaustive optimal), plus the
// placement machinery (buddy-aligned GPU group allocation) and the
// NP-hardness apparatus from the paper's appendices.
//
// A Scheduler observes the cluster through a PlanContext snapshot and emits
// Assignments: "run these steps of these requests on this GPU group". The
// simulator (internal/sim) and the live server (internal/server) both drive
// schedulers through this interface, so control-plane logic is identical
// offline and online.
package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// DegreeTally counts executed steps per sequence-parallel degree. Degrees are
// powers of two (≤ 64, the Mask width), so the tally is a flat array indexed
// by log2(degree) — a plain value with no heap footprint, unlike the map it
// replaced, so tracker entries stay allocation-free on the hot path.
type DegreeTally [7]int

// Add credits steps executed at the given power-of-two degree.
func (t *DegreeTally) Add(degree, steps int) {
	t[bits.TrailingZeros(uint(degree))] += steps
}

// Get returns the steps executed at the given power-of-two degree.
func (t *DegreeTally) Get(degree int) int {
	return t[bits.TrailingZeros(uint(degree))]
}

// Total returns the steps executed across all degrees.
func (t *DegreeTally) Total() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

// RequestState is the scheduler-visible state of one request — what the
// paper's Request Tracker maintains (§3).
type RequestState struct {
	Req *workload.Request
	// Remaining is the number of denoising steps left.
	Remaining int
	// Running reports whether an assignment for this request is executing.
	Running bool
	// LastGroup is the GPU set the request ran on most recently (0 before
	// the first step) — the input to placement preservation.
	LastGroup simgpu.Mask
	// StepsByDegree tallies executed steps per parallelism degree, feeding
	// the Figure 11 average-degree analysis.
	StepsByDegree DegreeTally
	// QualityUsed counts the steps already approximated via step caching;
	// QualityUsed never exceeds Req.QualityBudget.
	QualityUsed int
	// Started reports whether any step has executed.
	Started bool
}

// Clone returns a deep copy (used by solvers that explore hypotheticals).
func (s *RequestState) Clone() *RequestState {
	c := *s
	return &c
}

// Deadline is the request's absolute deadline.
func (s *RequestState) Deadline() time.Duration { return s.Req.Deadline() }

// DefinitelyLate reports whether the request cannot meet its deadline even
// at the fastest profiled per-step time starting from now.
func (s *RequestState) DefinitelyLate(now time.Duration, prof *costmodel.Profile) bool {
	tmin, _ := prof.MinStepTime(s.Req.Res)
	return now+time.Duration(s.Remaining)*tmin > s.Deadline()
}

// AvgDegree returns the steps-weighted mean parallelism degree so far.
func (s *RequestState) AvgDegree() float64 {
	steps, weighted := 0, 0
	for i, n := range s.StepsByDegree {
		steps += n
		weighted += (1 << i) * n
	}
	if steps == 0 {
		return 0
	}
	return float64(weighted) / float64(steps)
}

// CacheProtectedSteps is N, the shared protection zone: the first and last N
// effective steps of a request are never cache-approximated — early steps
// set global structure, late steps refine detail, and both degrade output
// quality disproportionately (the exemplar step-caching systems protect the
// same zones).
const CacheProtectedSteps = 4

// ApproxSteps returns how many of q consecutive steps run cache-approximated
// at interval c: step j of the block (0-based) executes fully iff j%c == 0.
// Interval ≤ 1 approximates nothing. This is the single quality-accounting
// function the planner, control loop, checker, and oracle all share — one
// definition, so their ledgers can never drift.
func ApproxSteps(q, c int) int {
	if c <= 1 || q <= 0 {
		return 0
	}
	return q - (q+c-1)/c
}

// Assignment instructs the engine to execute Steps denoising steps for each
// listed request on Group. Multiple requests form a selectively-batched
// step block and must share a resolution.
type Assignment struct {
	Requests []workload.RequestID
	Group    simgpu.Mask
	Steps    int
	// RoundAligned marks blocks sized to finish within the scheduler's
	// round; the simulator's round tick waits for aligned blocks only.
	RoundAligned bool
	// BestEffort marks the ≤1-GPU lane for already-late requests.
	BestEffort bool
	// CacheInterval c > 1 runs only every c-th step fully and approximates
	// the rest from cached features, discounting per-step cost by the
	// profile's CacheDiscount(c). 0 or 1 means no caching. Cached blocks are
	// single-request (approximation cadence is per-request state).
	CacheInterval int
}

// Validate checks structural sanity against a topology.
func (a *Assignment) Validate(topo *simgpu.Topology) error {
	if len(a.Requests) == 0 {
		return fmt.Errorf("sched: assignment with no requests")
	}
	if a.Steps <= 0 {
		return fmt.Errorf("sched: assignment with %d steps", a.Steps)
	}
	return topo.ValidGroup(a.Group)
}

// PlanContext is the snapshot a scheduler plans against.
type PlanContext struct {
	Now time.Duration
	// Free is the set of idle GPUs.
	Free simgpu.Mask
	// Capacity is the GPU set the shard currently owns (elastic serving may
	// resize it between rounds). Zero means the full topology. Free ⊆
	// Capacity always; planners that only carve groups out of Free need not
	// consult it, but plan caches must fingerprint it so a capacity change
	// never replays a stale plan.
	Capacity simgpu.Mask
	// Pending lists requests with Remaining > 0 that are not Running,
	// in arrival order.
	Pending []*RequestState
	// Split reports that OnTime and Late partition Pending by the
	// scheduler's Lateness rule at Now: OnTime holds the requests that are
	// not yet definitely late, in Pending order; Late holds the rest, stably
	// sorted by deadline. Together they hold exactly the Pending requests.
	// The control loop keeps this split for schedulers that implement
	// Lateness, so a round need not re-judge the whole backlog;
	// SplitPending fills it for hand-built contexts. Unset, OnTime and Late
	// are meaningless.
	Split  bool
	OnTime []*RequestState
	Late   []*RequestState
	// Running lists requests currently executing.
	Running []*RequestState
	// Profile is the offline-profiled cost model.
	Profile *costmodel.Profile
	// Topo is the cluster topology.
	Topo *simgpu.Topology
}

// Lateness is implemented by schedulers with a definitely-late rule: st is
// definitely late at now iff now > LateFrom(prof, st). While a request is
// pending, nothing LateFrom reads changes — its remaining steps, quality
// spend, deadline and resolution are fixed until it runs again — so a
// pending request turns late exactly once and never turns back, unless
// prof's Version changes. The control loop relies on this to keep
// PlanContext's OnTime/Late split up to date incrementally.
type Lateness interface {
	LateFrom(prof *costmodel.Profile, st *RequestState) time.Duration
}

// SplitPending fills ctx.OnTime and ctx.Late from ctx.Pending by lt at
// ctx.Now and sets ctx.Split, reusing the two slices' storage. It is the
// from-scratch definition of the split the control loop maintains as
// requests arrive, start, requeue and expire.
func SplitPending(ctx *PlanContext, lt Lateness) {
	onTime, late := ctx.OnTime[:0], ctx.Late[:0]
	for _, st := range ctx.Pending {
		if ctx.Now > lt.LateFrom(ctx.Profile, st) {
			late = append(late, st)
		} else {
			onTime = append(onTime, st)
		}
	}
	slices.SortStableFunc(late, func(a, b *RequestState) int { return cmp.Compare(a.Deadline(), b.Deadline()) })
	ctx.OnTime, ctx.Late, ctx.Split = onTime, late, true
}

// Scheduler decides GPU allocations.
type Scheduler interface {
	// Name identifies the policy in reports ("TetriServe", "xDiT SP=4").
	Name() string
	// RoundDuration returns the fixed round length τ for round-based
	// policies, or 0 for purely event-driven policies (which are invoked
	// on every arrival and completion instead).
	RoundDuration() time.Duration
	// Plan returns assignments to start now. Returned assignments must use
	// disjoint subsets of ctx.Free and only requests from ctx.Pending.
	// ctx.Pending and the split slices may alias the caller's live tracker
	// storage: read them, never modify or retain them.
	//
	// Ownership: the returned slice and the Requests slices inside it are
	// only guaranteed valid until the next Plan call on the same scheduler —
	// hot-path implementations reuse that storage. Callers retaining
	// assignments across planning rounds must copy them (the engine clones
	// Requests on Start).
	Plan(ctx *PlanContext) []Assignment
}

// ValidatePlan checks a plan against the context: free-GPU discipline,
// request membership, resolution-homogeneous batches. Both the simulator
// and the tests use it as an oracle against scheduler bugs.
func ValidatePlan(ctx *PlanContext, plan []Assignment) error {
	var c PlanChecker
	return c.Validate(ctx, plan)
}

// PlanChecker is a reusable ValidatePlan. It indexes only the plan's request
// IDs — a plan names a handful of requests while the pending set may hold
// hundreds — and keeps that index across calls, so validating a plan on the
// control loop's hot path neither hashes the backlog nor allocates once the
// index has grown to the largest plan. The zero value is ready to use; not
// safe for concurrent use.
type PlanChecker struct {
	// ids holds the plan's distinct request IDs in ascending order, each
	// with the pending state it names (nil if none) and whether an
	// assignment has claimed it yet.
	ids []plannedID
}

type plannedID struct {
	id      workload.RequestID
	st      *RequestState
	claimed bool
}

// index builds c.ids for plan against the pending requests. A split context
// is searched in OnTime, then Late from its front — where the best-effort
// lane draws from — so a deep late backlog is not walked; an unsplit one
// is searched from the back of Pending, so when Pending repeats an ID the
// last entry wins. Either way the search stops once every planned ID is
// resolved.
func (c *PlanChecker) index(ctx *PlanContext, plan []Assignment) {
	// filter has bit id%64 set for every planned ID, so most pending
	// requests are passed over without a search.
	ids := c.ids[:0]
	var filter uint64
	for i := range plan {
		for _, id := range plan[i].Requests {
			ids = append(ids, plannedID{id: id})
			filter |= 1 << (uint64(id) % 64)
		}
	}
	slices.SortFunc(ids, func(a, b plannedID) int { return cmp.Compare(a.id, b.id) })
	ids = slices.CompactFunc(ids, func(a, b plannedID) bool { return a.id == b.id })
	c.ids = ids
	unresolved := len(ids)
	resolve := func(st *RequestState) {
		if id := st.Req.ID; filter&(1<<(uint64(id)%64)) != 0 {
			if e := c.lookup(id); e != nil && e.st == nil {
				e.st = st
				unresolved--
			}
		}
	}
	if ctx.Split {
		for _, tier := range [2][]*RequestState{ctx.OnTime, ctx.Late} {
			for i := 0; i < len(tier) && unresolved > 0; i++ {
				resolve(tier[i])
			}
		}
		return
	}
	for i := len(ctx.Pending) - 1; i >= 0 && unresolved > 0; i-- {
		resolve(ctx.Pending[i])
	}
}

// lookup returns id's entry in c.ids, or nil.
func (c *PlanChecker) lookup(id workload.RequestID) *plannedID {
	i, ok := slices.BinarySearchFunc(c.ids, id, func(e plannedID, id workload.RequestID) int { return cmp.Compare(e.id, id) })
	if !ok {
		return nil
	}
	return &c.ids[i]
}

// Validate performs the same checks as ValidatePlan.
func (c *PlanChecker) Validate(ctx *PlanContext, plan []Assignment) error {
	c.index(ctx, plan)
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
			e := c.lookup(id)
			if e.st == nil {
				return fmt.Errorf("sched: assignment %d references unknown or running request %d", i, id)
			}
			if e.claimed {
				return fmt.Errorf("sched: request %d appears in two assignments", id)
			}
			e.claimed = true
			st := e.st
			// A batched block may nominally exceed a member's remaining
			// steps (the member exits the batch early); single-request
			// assignments must not.
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
