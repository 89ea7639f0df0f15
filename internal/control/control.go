// Package control is the clock-agnostic, round-based serving control plane —
// the single implementation of the scheduling loop the paper describes
// (deadline-aware allocation → knapsack packing → placement-preserving
// dispatch). It owns all request state (pending/running trackers), the τ
// round grid, plan → dispatch, fault requeue, drop/timeout expiry, and
// finish/drop bookkeeping.
//
// The loop is parameterized over clock.Clock and driven through an explicit
// event queue, so the exact same code runs in two worlds:
//
//   - internal/sim advances a clock.Virtual to each event and drains the
//     queue to completion (discrete-event simulation);
//   - internal/server sleeps on a clock.Real between events and feeds
//     arrivals and fault commands in from channels (live serving).
//
// Adapters observe per-request lifecycle transitions through Hooks (the
// driver mirrors them into its HTTP-visible job records); everything else —
// outcomes, run records, plan latencies, health counters — accumulates in
// the shared Result, which is why the simulator's trace export and the
// driver's /v1/stats agree by construction.
package control

import (
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/eventq"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// StepTrimmer is the hook cache-based acceleration (Nirvana, §6.2) plugs
// into: it may shrink a request's step count on arrival and observes
// completions to update its state. The simulator passes it through from its
// config; the driver wraps the approximate latent cache in one.
type StepTrimmer interface {
	// OnArrival returns how many initial steps to skip for the prompt.
	OnArrival(p workload.Prompt, res model.Resolution, steps int, now time.Duration) int
	// OnComplete records a served request for future reuse.
	OnComplete(p workload.Prompt, res model.Resolution, now time.Duration)
}

// RequeueCause explains why a running request went back to the pending
// queue: a GPU fault aborted its block, or an elastic capacity change
// preempted it with a planned handoff. Ordinary end-of-block requeues fire
// no hook (the request stays logically running between rounds).
type RequeueCause string

// Requeue causes.
const (
	RequeueFault  RequeueCause = "fault"
	RequeueResize RequeueCause = "resize"
)

// Hooks are optional per-transition callbacks for adapter-side bookkeeping
// (the driver's job-state mirror) and for observers such as the
// internal/invariant oracle. Every field may be nil. Hooks run on the loop's
// goroutine, synchronously with the transition they describe. Use Then to
// fan a transition out to several observers.
type Hooks struct {
	// Arriving fires before admission bookkeeping (before the trimmer and
	// the tracker insert) — the driver's on-demand profile extension point.
	Arriving func(now time.Duration, r *workload.Request)
	// Admitted fires once the request is tracked and pending.
	Admitted func(now time.Duration, r *workload.Request)
	// Started fires when a request joins a dispatched block.
	Started func(now time.Duration, id workload.RequestID)
	// Requeued fires when a fault or a capacity resize interrupts a
	// request's block and the survivor returns to the pending queue (not on
	// ordinary end-of-block requeues, which keep the request logically
	// running from the caller's view). cause says which interruption it was.
	Requeued func(now time.Duration, id workload.RequestID, cause RequeueCause)
	// StepsElided fires when a retired block (completed, aborted or
	// preempted) credited approximated steps against a request's quality
	// budget — the per-request record of where step caching spent quality.
	// approx is the number of steps the block's cache interval approximated
	// for this request. Only fires when approx > 0.
	StepsElided func(now time.Duration, id workload.RequestID, approx int)
	// Finished fires for completed requests, Dropped for expired ones
	// (timeout policy or no-requeue fault ablation).
	Finished func(now time.Duration, o Outcome)
	Dropped  func(now time.Duration, o Outcome)
	// PlanRejected / StartFailed fire when the loop degrades loudly.
	PlanRejected func(now time.Duration, err error)
	StartFailed  func(now time.Duration, err error)

	// PlanComputed fires after every scheduler invocation — before
	// validation, so rejected plans report solve latency too. Exactly one of
	// Planned or PlanRejected follows, synchronously; ctx aliases
	// scheduler-owned scratch storage and must only be read during the
	// callback. latency is the wall-clock solve time.
	PlanComputed func(now, latency time.Duration, ctx *sched.PlanContext)
	// RoundTick fires at every effective τ boundary (after overrun
	// deferral), with the grid-anchored tick time and the clock reading.
	RoundTick func(at, now time.Duration)

	// Planned fires after a plan passes validation and before dispatch.
	// ctx and plan alias scheduler-owned scratch storage: observers must
	// read synchronously and never retain either value past the callback.
	Planned func(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment)
	// RunStarted fires when the engine accepts a block; RunFinished fires
	// when the block retires at its end time. The *engine.Run is the loop's
	// live record — observers must not mutate it.
	RunStarted  func(now time.Duration, run *engine.Run)
	RunFinished func(now time.Duration, run *engine.Run)
	// RunAborted fires when a GPU fault kills an in-flight block, before the
	// surviving members are requeued or dropped. stepsDone credits the steps
	// each member completed before the fault.
	RunAborted func(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int)
	// RunPreempted fires when a capacity resize preempts an in-flight block
	// (planned handoff: steps credited, latent retained on surviving
	// members), before the members are requeued.
	RunPreempted func(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int)
	// Resized fires on every effective capacity change, with the GPU sets
	// the shard gave up and gained. A no-op resize (same mask) does not fire.
	Resized func(now time.Duration, removed, added simgpu.Mask)
	// GPUFailed and GPURecovered observe effective fault-plane transitions:
	// the mask holds only GPUs that actually changed state (re-failing a
	// dead GPU or recovering a healthy one does not fire).
	GPUFailed    func(now time.Duration, mask simgpu.Mask)
	GPURecovered func(now time.Duration, mask simgpu.Mask)
}

// Then returns hooks that invoke h's callback first and next's second for
// every transition, so several observers (the driver's job mirror, the
// invariant oracle) can watch one loop without knowing about each other.
func (h Hooks) Then(next Hooks) Hooks {
	return Hooks{
		Arriving:     chain2(h.Arriving, next.Arriving),
		Admitted:     chain2(h.Admitted, next.Admitted),
		Started:      chain2(h.Started, next.Started),
		Requeued:     chain3(h.Requeued, next.Requeued),
		StepsElided:  chain3(h.StepsElided, next.StepsElided),
		Finished:     chain2(h.Finished, next.Finished),
		Dropped:      chain2(h.Dropped, next.Dropped),
		PlanRejected: chain2(h.PlanRejected, next.PlanRejected),
		StartFailed:  chain2(h.StartFailed, next.StartFailed),
		PlanComputed: chain3(h.PlanComputed, next.PlanComputed),
		RoundTick:    chain2(h.RoundTick, next.RoundTick),
		Planned:      chain3(h.Planned, next.Planned),
		RunStarted:   chain2(h.RunStarted, next.RunStarted),
		RunFinished:  chain2(h.RunFinished, next.RunFinished),
		RunAborted:   chain3(h.RunAborted, next.RunAborted),
		RunPreempted: chain3(h.RunPreempted, next.RunPreempted),
		Resized:      chain3(h.Resized, next.Resized),
		GPUFailed:    chain2(h.GPUFailed, next.GPUFailed),
		GPURecovered: chain2(h.GPURecovered, next.GPURecovered),
	}
}

func chain2[A, B any](a, b func(A, B)) func(A, B) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(x A, y B) { a(x, y); b(x, y) }
}

func chain3[A, B, C any](a, b func(A, B, C)) func(A, B, C) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(x A, y B, z C) { a(x, y, z); b(x, y, z) }
}

// Config describes one control loop.
type Config struct {
	Model     *model.Model
	Topo      *simgpu.Topology
	Scheduler sched.Scheduler
	// Profile is the offline-profiled cost table (required; adapters build
	// a default over the standard resolutions when their caller omits one).
	Profile *costmodel.Profile
	// Engine tunes execution physics.
	Engine engine.Config
	// Trimmer optionally shortens requests via caching.
	Trimmer StepTrimmer
	// DropLateFactor > 0 expires a request once now exceeds
	// arrival + SLO×factor without completion — both the queued-job expiry
	// checked at every planning boundary and the timeout semantics for
	// results delivered too late (the paper's Figure 9 "dropped/timeout"
	// population). 0 disables dropping.
	DropLateFactor float64
	// NoRequeueOnFault drops a fault's surviving victims instead of
	// requeueing them — the recovery ablation the failure sweep compares
	// against.
	NoRequeueOnFault bool
	// Perpetual keeps round ticks firing when no requests are outstanding
	// (the live driver); off, the grid stops once every scheduled request
	// is finalized (the simulator's termination condition).
	Perpetual bool
	// Strict panics on invalid plans and engine start rejections instead of
	// only counting them — the simulator's oracle behavior for experiments,
	// where a scheduler bug must abort the run, not skew the numbers. The
	// driver leaves it off: a serving loop counts the failure in Result and
	// retries at the next event.
	Strict bool
	// Preallocate sizes the result accumulators up front so steady-state
	// operation (and the 0-allocs/op benchmark guards) never pays append
	// growth. Zero fields fall back to on-demand growth.
	Preallocate Prealloc
	// Hooks receive lifecycle callbacks.
	Hooks Hooks
}

// Prealloc hints expected volumes for result accumulators; see
// Config.Preallocate.
type Prealloc struct {
	// Requests is the expected number of admitted requests (sizes Outcomes
	// and the tracker maps).
	Requests int
	// Runs is the expected number of executed blocks (sizes Runs and the
	// run-record request arena).
	Runs int
	// Rounds is the expected number of planning rounds (sizes PlanLatencies).
	Rounds int
}

// Event kinds on the loop's queue. Arrivals and faults appear only when the
// adapter pre-schedules them (the simulator); the driver injects those
// directly via Arrive/Fail/Recover.
const (
	evArrival = iota
	evRunDone
	evRoundTick
	evGPUFail
	evGPURecover
	evResize
)

// Loop is the shared round-based control plane. It is not safe for
// concurrent use: exactly one goroutine (the simulator's event loop or the
// driver's serving goroutine) owns it.
type Loop struct {
	cfg Config
	clk clock.Clock
	q   eventq.Queue
	eng *engine.Engine

	states map[workload.RequestID]*sched.RequestState
	// pending holds the unfinished, non-running requests in the order they
	// became pending (ProbeFeasibility sums its float backlog in this
	// order). byArrival holds the same requests ordered by (Arrival, ID),
	// equal keys in pending order: the order the scheduler plans in, kept
	// by insertion so no planning round sorts the backlog. Both change only
	// through enqueue, removePending and expire.
	pending   []*sched.RequestState
	byArrival []*sched.RequestState
	inflight  map[engine.RunID]*engine.Run
	// runEv maps in-flight runs to their completion events so GPU faults
	// can cancel the completions of blocks they abort.
	runEv map[engine.RunID]eventq.Handle
	res   *Result
	// left counts admitted-or-scheduled requests not yet finalized.
	left int
	// roundBased caches the scheduler mode.
	roundBased bool
	// eager additionally plans on arrivals for round-based schedulers.
	eager     bool
	tau       time.Duration
	schedOver time.Duration
	// resizeStaged/resizeMask hold a pending capacity change for round-based
	// schedulers: ApplyResize stages it (last writer wins) and the next
	// effective round tick applies it before planning, so every plan within
	// a round sees one consistent capacity.
	resizeStaged bool
	resizeMask   simgpu.Mask

	// Reused per-plan scratch (the control-plane analogue of the planner's
	// planScratch): snapshot buffers, the PlanContext handed to the
	// scheduler, and the plan validator all live across rounds so a planning
	// boundary allocates nothing in steady state.
	ctx      sched.PlanContext
	pendSnap []*sched.RequestState
	runSnap  []*sched.RequestState
	// running tracks states with Running set, maintained at the three flip
	// sites so snapshotRunning never walks the full (mostly finished)
	// request tracker.
	running []*sched.RequestState
	checker sched.PlanChecker
	// recArena backs RunRecord.Requests for all records in res.Runs, grown
	// in place instead of one clone per record.
	recArena []workload.RequestID
}

// New validates the configuration and builds a ready-to-run loop.
func New(cfg Config, clk clock.Clock) (*Loop, error) {
	if cfg.Model == nil || cfg.Topo == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("control: Model, Topo and Scheduler are required")
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("control: Profile is required")
	}
	if clk == nil {
		return nil, fmt.Errorf("control: clock is required")
	}
	pre := cfg.Preallocate
	l := &Loop{
		cfg:      cfg,
		clk:      clk,
		eng:      engine.New(cfg.Model, cfg.Topo, cfg.Profile, cfg.Engine),
		states:   make(map[workload.RequestID]*sched.RequestState, max(pre.Requests, 0)),
		inflight: make(map[engine.RunID]*engine.Run),
		runEv:    make(map[engine.RunID]eventq.Handle),
		res: &Result{
			SchedulerName: cfg.Scheduler.Name(),
			NGPU:          cfg.Topo.N,
		},
		roundBased: cfg.Scheduler.RoundDuration() > 0,
		tau:        cfg.Scheduler.RoundDuration(),
	}
	if pre.Requests > 0 {
		l.res.Outcomes = make([]Outcome, 0, pre.Requests)
	}
	if pre.Runs > 0 {
		l.res.Runs = make([]RunRecord, 0, pre.Runs)
		l.recArena = make([]workload.RequestID, 0, 2*pre.Runs)
	}
	if pre.Rounds > 0 {
		l.res.PlanLatencies = make([]time.Duration, 0, pre.Rounds)
	}
	if o, ok := cfg.Scheduler.(interface{ Overhead() time.Duration }); ok {
		l.schedOver = o.Overhead()
	}
	if e, ok := cfg.Scheduler.(interface{ EagerAdmission() bool }); ok {
		l.eager = e.EagerAdmission()
	}
	return l, nil
}

// Engine exposes the loop-owned execution engine for adapter telemetry
// (busy seconds, failed mask, memory accounting). Read it only from the
// goroutine driving the loop.
func (l *Loop) Engine() *engine.Engine { return l.eng }

// Result exposes the loop-owned accumulator. Use Finalize or SnapshotResult
// for a consistent view with engine telemetry filled in.
func (l *Loop) Result() *Result { return l.res }

// Unfinished reports how many scheduled or admitted requests have not been
// finalized — the simulator's termination condition.
func (l *Loop) Unfinished() int { return l.left }

// StateCount reports tracked (non-finalized) request states; it must drain
// to zero with Unfinished, or the tracker leaks.
func (l *Loop) StateCount() int { return len(l.states) }

// ScheduleArrival enqueues a trace request to arrive at its Arrival time
// (simulator pre-scheduling).
func (l *Loop) ScheduleArrival(r *workload.Request) {
	l.left++
	l.q.Push(r.Arrival, evArrival, r)
}

// ScheduleFault enqueues a fail-stop fault (and its optional recovery).
func (l *Loop) ScheduleFault(f simgpu.Fault) {
	l.q.Push(f.FailAt, evGPUFail, simgpu.MaskOf(f.GPU))
	if f.RecoverAt > 0 {
		l.q.Push(f.RecoverAt, evGPURecover, simgpu.MaskOf(f.GPU))
	}
}

// ScheduleResize enqueues a planned capacity change (simulator
// pre-scheduling). Like ApplyResize, it stages the new mask when dispatched;
// round-based schedulers apply it at the next effective round tick.
func (l *Loop) ScheduleResize(r simgpu.Resize) {
	l.q.Push(r.At, evResize, r.NewMask)
}

// Begin anchors the τ grid: round-based schedulers get their first tick at
// the current clock reading. Call it after pre-scheduling arrivals/faults so
// same-instant arrivals are admitted before the tick plans them.
func (l *Loop) Begin() {
	if l.roundBased {
		l.q.Push(l.clk.Now(), evRoundTick, nil)
	}
}

// NextEvent peeks the earliest pending event without removing it, or nil.
func (l *Loop) NextEvent() *eventq.Event { return l.q.Peek() }

// PopEvent removes and returns the earliest pending event, or nil.
func (l *Loop) PopEvent() *eventq.Event { return l.q.Pop() }

// Dispatch handles one popped event. The caller is responsible for clock
// discipline: the simulator advances its virtual clock to ev.At first; the
// driver dispatches events whose time has passed on the real clock.
func (l *Loop) Dispatch(ev *eventq.Event) error {
	if ev == nil {
		return nil
	}
	now := l.clk.Now()
	var err error
	switch ev.Kind {
	case evArrival:
		l.admit(now, ev.Payload.(*workload.Request))
	case evRunDone:
		err = l.onRunDone(now, ev.Payload.(*engine.Run))
	case evRoundTick:
		l.onRoundTick(ev.At, now)
	case evGPUFail:
		l.onGPUFail(now, ev.Payload.(simgpu.Mask))
	case evGPURecover:
		l.onGPURecover(now, ev.Payload.(simgpu.Mask))
	case evResize:
		l.stageResize(now, ev.Payload.(simgpu.Mask))
	}
	// The event has been consumed; hand its storage back to the queue so the
	// next Push reuses it instead of allocating.
	l.q.Recycle(ev)
	return err
}

// Arrive admits a request right now (driver path: arrivals come from a
// channel, not the pre-scheduled queue). The request's Arrival is stamped
// from the clock.
func (l *Loop) Arrive(r *workload.Request) {
	l.left++
	l.admit(l.clk.Now(), r)
}

// Fail injects a fail-stop fault for the masked GPUs right now.
func (l *Loop) Fail(mask simgpu.Mask) { l.onGPUFail(l.clk.Now(), mask) }

// Recover returns previously failed GPUs to the pool right now.
func (l *Loop) Recover(mask simgpu.Mask) { l.onGPURecover(l.clk.Now(), mask) }

// ApplyResize requests that the shard's owned GPU set become newMask. For
// round-based schedulers the change takes effect at the next effective round
// tick (after overrun deferral, before planning) so mid-round state never
// sees a capacity flip; staging is last-writer-wins. Event-driven schedulers
// have no round structure, so the resize applies immediately and replans.
func (l *Loop) ApplyResize(newMask simgpu.Mask) {
	l.stageResize(l.clk.Now(), newMask)
}

// stageResize is the shared entry for ApplyResize and pre-scheduled evResize
// events.
func (l *Loop) stageResize(now time.Duration, newMask simgpu.Mask) {
	if !l.roundBased {
		l.applyResize(now, newMask)
		l.plan(now)
		return
	}
	l.resizeStaged = true
	l.resizeMask = newMask
}

// Finalize fills engine telemetry and the makespan into the result and
// returns it (shared storage, not a copy).
func (l *Loop) Finalize() *Result {
	l.fillTelemetry()
	return l.res
}

// SnapshotResult returns a deep copy of the result with telemetry filled —
// the driver's point-in-time view for trace export and Gantt rendering.
func (l *Loop) SnapshotResult() *Result {
	l.fillTelemetry()
	return l.res.Clone()
}

func (l *Loop) fillTelemetry() {
	l.res.Makespan = l.clk.Now()
	l.res.GPUBusySeconds = l.eng.GPUBusySeconds()
	l.res.Remaps = l.eng.Remaps()
	l.res.Warmups = l.eng.Warmups()
	l.res.RunsAborted = l.eng.RunsAborted()
	l.res.RunsPreempted = l.eng.RunsPreempted()
	l.res.Resizes = l.eng.Resizes()
}

// admit runs the arrival path: trim, track, queue, and (for event-driven or
// eager round-based schedulers) plan immediately.
func (l *Loop) admit(now time.Duration, r *workload.Request) {
	if l.cfg.Hooks.Arriving != nil {
		l.cfg.Hooks.Arriving(now, r)
	}
	r.Arrival = now
	steps := r.Steps
	if l.cfg.Trimmer != nil {
		skip := l.cfg.Trimmer.OnArrival(r.Prompt, r.Res, steps, now)
		if skip < 0 {
			skip = 0
		}
		if skip >= steps {
			skip = steps - 1 // at least one step always runs
		}
		r.SkippedSteps = skip
		steps -= skip
	}
	st := &sched.RequestState{
		Req:       r,
		Remaining: steps,
	}
	l.states[r.ID] = st
	l.enqueue(st)
	if l.cfg.Hooks.Admitted != nil {
		l.cfg.Hooks.Admitted(now, r)
	}
	if !l.roundBased || (l.eager && l.eng.Free() != 0) {
		l.plan(now)
	}
}

func (l *Loop) onRunDone(now time.Duration, run *engine.Run) error {
	if err := l.eng.Finish(run); err != nil {
		return err
	}
	if l.cfg.Hooks.RunFinished != nil {
		l.cfg.Hooks.RunFinished(now, run)
	}
	delete(l.inflight, run.ID)
	delete(l.runEv, run.ID)
	l.res.Runs = append(l.res.Runs, RunRecord{
		Start:         run.Start,
		End:           run.End,
		Degree:        run.Degree,
		Steps:         run.Asg.Steps,
		Requests:      l.captureIDs(run.Asg.Requests),
		Res:           run.Res,
		Group:         run.Asg.Group,
		BestEffort:    run.Asg.BestEffort,
		Batched:       run.Batched,
		CacheInterval: run.Asg.CacheInterval,
	})

	// Iterate members in assignment order, not map order, so decode-queue
	// ordering (and therefore completion times) is deterministic.
	for _, id := range run.Asg.Requests {
		steps, ok := run.Steps[id]
		if !ok {
			continue
		}
		st := l.states[id]
		l.clearRunning(st)
		st.Started = true
		st.Remaining -= steps
		if approx := sched.ApproxSteps(steps, run.Asg.CacheInterval); approx > 0 {
			st.QualityUsed += approx
			if l.cfg.Hooks.StepsElided != nil {
				l.cfg.Hooks.StepsElided(now, id, approx)
			}
		}
		st.LastGroup = run.Asg.Group
		st.StepsByDegree.Add(run.Degree, steps)
		if st.Remaining <= 0 {
			l.finish(now, st)
		} else if l.cfg.DropLateFactor > 0 && l.pastDrop(now, st) {
			l.drop(now, st, DropExpired)
		} else {
			l.enqueue(st)
		}
	}
	// Observers were notified and the record copied; the run struct can be
	// recycled for a future Start.
	l.eng.Release(run)
	if !l.roundBased {
		l.plan(now)
	}
	return nil
}

// captureIDs copies a run's member list into the loop's record arena,
// returning a full-capacity-clipped slice that stays valid for the life of
// the result (arena growth re-points the arena, not issued slices).
func (l *Loop) captureIDs(ids []workload.RequestID) []workload.RequestID {
	n := len(l.recArena)
	l.recArena = append(l.recArena, ids...)
	return l.recArena[n:len(l.recArena):len(l.recArena)]
}

// onRoundTick fires a τ boundary. at is the tick's scheduled time (the grid
// anchor rescheduling derives from, so late wake-ups on the real clock never
// accumulate drift); now is the clock reading.
func (l *Loop) onRoundTick(at, now time.Duration) {
	// If a round-aligned block is still running (noise overrun), defer the
	// tick until it ends so every round starts from a clean boundary.
	latest := time.Duration(-1)
	for _, run := range l.inflight {
		if run.Asg.RoundAligned && run.End > latest {
			latest = run.End
		}
	}
	if latest > now {
		l.q.Push(latest+time.Microsecond, evRoundTick, nil)
		return
	}
	// A staged capacity change lands exactly here: the boundary is clean
	// (no round-aligned overrun), the plan below sees the new capacity, and
	// every plan before the next tick sees the same one.
	if l.resizeStaged {
		l.resizeStaged = false
		l.applyResize(now, l.resizeMask)
	}
	l.res.RoundTicks++
	if l.cfg.Hooks.RoundTick != nil {
		l.cfg.Hooks.RoundTick(at, now)
	}
	l.plan(now)
	if l.cfg.Perpetual || l.left > 0 {
		l.q.Push(l.nextTick(at), evRoundTick, nil)
	}
}

// nextTick returns the grid point the next round tick should fire at —
// normally at+τ. When the loop is completely idle (nothing pending, nothing
// in flight) every tick before the next queued event is a no-op, so the
// pre-scheduled-event world (the simulator) can fast-forward along the grid
// to the first boundary that will observe the event. Skipped boundaries are
// still counted in RoundTicks, keeping Result bookkeeping identical to
// dispatching them one by one. The fast-forward is disabled when a RoundTick
// hook is attached (observers see every boundary at its own dispatch) and in
// Perpetual mode (the driver's arrivals are not pre-scheduled, so the queue
// cannot bound the idle gap).
func (l *Loop) nextTick(at time.Duration) time.Duration {
	next := at + l.tau
	if l.cfg.Perpetual || l.cfg.Hooks.RoundTick != nil ||
		len(l.pending) != 0 || len(l.inflight) != 0 || l.tau <= 0 {
		return next
	}
	nev := l.q.Peek()
	if nev == nil || nev.At <= next {
		return next
	}
	// First grid point at or past the next event; the k-1 boundaries before
	// it would each have ticked, planned nothing, and rescheduled.
	k := (nev.At - at + l.tau - 1) / l.tau
	l.res.RoundTicks += int(k - 1)
	return at + time.Duration(k)*l.tau
}

// plan applies the drop policy, then invokes the scheduler and starts the
// returned assignments.
func (l *Loop) plan(now time.Duration) {
	l.expire(now)
	// The context and its snapshot slices are loop-owned scratch, rebuilt in
	// place every round; hook observers already contract to read them only
	// synchronously.
	l.ctx = sched.PlanContext{
		Now:      now,
		Free:     l.eng.Free(),
		Capacity: l.eng.Capacity(),
		Pending:  l.snapshotPending(),
		Running:  l.snapshotRunning(),
		Profile:  l.cfg.Profile,
		Topo:     l.cfg.Topo,
	}
	ctx := &l.ctx
	if len(ctx.Pending) == 0 {
		return
	}
	start := time.Now()
	plan := l.cfg.Scheduler.Plan(ctx)
	solve := time.Since(start)
	l.res.PlanLatencies = append(l.res.PlanLatencies, solve)
	l.res.PlanCalls++
	if l.cfg.Hooks.PlanComputed != nil {
		l.cfg.Hooks.PlanComputed(now, solve, ctx)
	}
	if err := l.checker.Validate(ctx, plan); err != nil {
		// A scheduler bug must not corrupt serving state: count it, skip
		// this plan, and retry at the next event. Strict mode (simulator)
		// additionally aborts the run — experiment numbers from a buggy
		// scheduler are worse than no numbers.
		l.res.PlanRejected++
		if l.cfg.Hooks.PlanRejected != nil {
			l.cfg.Hooks.PlanRejected(now, err)
		}
		if l.cfg.Strict {
			panic(fmt.Sprintf("control: scheduler %q produced invalid plan: %v", l.cfg.Scheduler.Name(), err))
		}
		return
	}
	if l.cfg.Hooks.Planned != nil {
		l.cfg.Hooks.Planned(now, ctx, plan)
	}
	for _, asg := range plan {
		run, err := l.eng.Start(now, asg, l.states, l.dispatchDelay())
		if err != nil {
			l.res.StartFailed++
			if l.cfg.Hooks.StartFailed != nil {
				l.cfg.Hooks.StartFailed(now, err)
			}
			if l.cfg.Strict {
				panic(fmt.Sprintf("control: engine rejected validated assignment: %v", err))
			}
			continue
		}
		if l.cfg.Hooks.RunStarted != nil {
			l.cfg.Hooks.RunStarted(now, run)
		}
		for _, id := range asg.Requests {
			st := l.states[id]
			l.setRunning(st)
			l.removePending(st)
			if l.cfg.Hooks.Started != nil {
				l.cfg.Hooks.Started(now, id)
			}
		}
		l.inflight[run.ID] = run
		l.runEv[run.ID] = l.q.Push(run.End, evRunDone, run)
	}
}

// expire applies the timeout policy at planning boundaries: a request still
// pending past DropLateFactor × SLO is abandoned — its client is gone, and
// keeping it would let the queue grow without bound under overload.
func (l *Loop) expire(now time.Duration) {
	if l.cfg.DropLateFactor <= 0 {
		return
	}
	expired := func(st *sched.RequestState) bool { return !st.Running && l.pastDrop(now, st) }
	// Drops go out in pending order, which fixes the order of their
	// outcomes and hooks.
	dropped := false
	for _, st := range l.pending {
		if expired(st) {
			l.drop(now, st, DropExpired)
			dropped = true
		}
	}
	if dropped {
		l.pending = slices.DeleteFunc(l.pending, expired)
		l.byArrival = slices.DeleteFunc(l.byArrival, expired)
	}
}

// onGPUFail injects a fail-stop fault: the engine aborts intersecting
// blocks, credits completed steps, and this layer requeues the surviving
// members so the next plan re-packs them on the remaining GPUs — paying
// latent re-transfer and group re-warm-up per the §5 cost model. With
// NoRequeueOnFault the victims are dropped instead (the ablation).
func (l *Loop) onGPUFail(now time.Duration, mask simgpu.Mask) {
	prevFailed := l.eng.FailedGPUs()
	failures := l.eng.FailGPUs(now, mask)
	if newly := l.eng.FailedGPUs().Without(prevFailed); newly != 0 && l.cfg.Hooks.GPUFailed != nil {
		l.cfg.Hooks.GPUFailed(now, newly)
	}
	// The engine surfaces aborts in map order; sort for a deterministic
	// requeue (and therefore pending) order.
	slices.SortFunc(failures, func(a, b *engine.RunFailure) int {
		if a.Run.ID < b.Run.ID {
			return -1
		}
		if a.Run.ID > b.Run.ID {
			return 1
		}
		return 0
	})
	for _, f := range failures {
		if l.cfg.Hooks.RunAborted != nil {
			l.cfg.Hooks.RunAborted(now, f.Run, f.StepsDone)
		}
		if h, ok := l.runEv[f.Run.ID]; ok {
			l.q.Cancel(h)
			delete(l.runEv, f.Run.ID)
		}
		delete(l.inflight, f.Run.ID)
		l.res.Runs = append(l.res.Runs, RunRecord{
			Start:         f.Run.Start,
			End:           now,
			Degree:        f.Run.Degree,
			Steps:         f.Run.Asg.Steps,
			Requests:      l.captureIDs(f.Run.Asg.Requests),
			Res:           f.Run.Res,
			Group:         f.Run.Asg.Group,
			BestEffort:    f.Run.Asg.BestEffort,
			Batched:       f.Run.Batched,
			CacheInterval: f.Run.Asg.CacheInterval,
			Aborted:       true,
		})
		for _, id := range f.Run.Asg.Requests {
			done, ok := f.StepsDone[id]
			if !ok {
				continue
			}
			st := l.states[id]
			l.clearRunning(st)
			if done > 0 {
				st.Started = true
				st.Remaining -= done
				// Credit the completed prefix's approximated steps with the
				// same ApproxSteps convention the planner budgeted with, so a
				// fault can never leak quality budget (ApproxSteps is monotone
				// in the step count: credit ≤ the full block's debit).
				if approx := sched.ApproxSteps(done, f.Run.Asg.CacheInterval); approx > 0 {
					st.QualityUsed += approx
					if l.cfg.Hooks.StepsElided != nil {
						l.cfg.Hooks.StepsElided(now, id, approx)
					}
				}
				st.StepsByDegree.Add(f.Run.Degree, done)
			}
			switch {
			case st.Remaining <= 0:
				// Every step finished before the fault; only the decode
				// remained, and the VAE runs outside the SP group.
				l.finish(now, st)
			case l.cfg.NoRequeueOnFault:
				l.drop(now, st, DropFault)
			case l.cfg.DropLateFactor > 0 && l.pastDrop(now, st):
				l.drop(now, st, DropExpired)
			default:
				l.enqueue(st)
				if l.cfg.Hooks.Requeued != nil {
					l.cfg.Hooks.Requeued(now, id, RequeueFault)
				}
			}
		}
		l.eng.Release(f.Run)
	}
	// Placement preservation must not steer survivors back onto dead GPUs.
	for _, st := range l.states {
		st.LastGroup = st.LastGroup.Without(mask)
	}
	if !l.roundBased {
		l.plan(now)
	}
}

// applyResize performs an effective capacity change. It mirrors onGPUFail's
// bookkeeping with the planned-handoff semantics the resize path guarantees:
// preempted members keep every completed step, their latents survive on the
// retained group members, and they are ALWAYS requeued (NoRequeueOnFault is a
// fault-recovery ablation and does not apply — no machine died) unless the
// drop policy has already expired them.
func (l *Loop) applyResize(now time.Duration, newMask simgpu.Mask) {
	newMask &= l.cfg.Topo.AllMask()
	prev := l.eng.Capacity()
	removed := prev.Without(newMask)
	added := newMask.Without(prev)
	if removed == 0 && added == 0 {
		return
	}
	preemptions := l.eng.Resize(now, newMask)
	l.res.Resizes++
	if l.cfg.Hooks.Resized != nil {
		l.cfg.Hooks.Resized(now, removed, added)
	}
	// The engine surfaces preemptions in map order; sort for a deterministic
	// requeue (and therefore pending) order.
	slices.SortFunc(preemptions, func(a, b *engine.RunPreemption) int {
		if a.Run.ID < b.Run.ID {
			return -1
		}
		if a.Run.ID > b.Run.ID {
			return 1
		}
		return 0
	})
	for _, p := range preemptions {
		if l.cfg.Hooks.RunPreempted != nil {
			l.cfg.Hooks.RunPreempted(now, p.Run, p.StepsDone)
		}
		if h, ok := l.runEv[p.Run.ID]; ok {
			l.q.Cancel(h)
			delete(l.runEv, p.Run.ID)
		}
		delete(l.inflight, p.Run.ID)
		l.res.Runs = append(l.res.Runs, RunRecord{
			Start:         p.Run.Start,
			End:           now,
			Degree:        p.Run.Degree,
			Steps:         p.Run.Asg.Steps,
			Requests:      l.captureIDs(p.Run.Asg.Requests),
			Res:           p.Run.Res,
			Group:         p.Run.Asg.Group,
			BestEffort:    p.Run.Asg.BestEffort,
			Batched:       p.Run.Batched,
			CacheInterval: p.Run.Asg.CacheInterval,
			Aborted:       true,
			Preempted:     true,
		})
		for _, id := range p.Run.Asg.Requests {
			done, ok := p.StepsDone[id]
			if !ok {
				continue
			}
			st := l.states[id]
			l.clearRunning(st)
			if done > 0 {
				st.Started = true
				st.Remaining -= done
				// Same prefix-credit convention as the fault path.
				if approx := sched.ApproxSteps(done, p.Run.Asg.CacheInterval); approx > 0 {
					st.QualityUsed += approx
					if l.cfg.Hooks.StepsElided != nil {
						l.cfg.Hooks.StepsElided(now, id, approx)
					}
				}
				st.StepsByDegree.Add(p.Run.Degree, done)
			}
			switch {
			case st.Remaining <= 0:
				l.finish(now, st)
			case l.cfg.DropLateFactor > 0 && l.pastDrop(now, st):
				l.drop(now, st, DropExpired)
			default:
				l.enqueue(st)
				if l.cfg.Hooks.Requeued != nil {
					l.cfg.Hooks.Requeued(now, id, RequeueResize)
				}
			}
		}
		l.eng.Release(p.Run)
	}
	// Placement preservation must not steer requests toward GPUs the shard
	// no longer owns.
	if removed != 0 {
		for _, st := range l.states {
			st.LastGroup = st.LastGroup.Without(removed)
		}
	}
}

// onGPURecover returns failed GPUs to the pool; round-based schedulers see
// the capacity at the next tick, event-driven ones replan immediately.
func (l *Loop) onGPURecover(now time.Duration, mask simgpu.Mask) {
	recovered := l.eng.RecoverGPUs(mask)
	if recovered == 0 {
		return
	}
	if l.cfg.Hooks.GPURecovered != nil {
		l.cfg.Hooks.GPURecovered(now, recovered)
	}
	if !l.roundBased {
		l.plan(now)
	}
}

// dispatchDelay is the control-plane latency charged per block.
// Round-based scheduling pays its decision loop (already budgeted in the
// scheduler's window); event-driven baselines dispatch directly.
func (l *Loop) dispatchDelay() time.Duration {
	if l.roundBased {
		return l.schedOver
	}
	return 0
}

// snapshotPending lists the plannable pending requests in (Arrival, ID)
// order. Arrival order is part of the FIFO baselines' semantics; re-queued
// requests must not jump ahead of earlier arrivals.
func (l *Loop) snapshotPending() []*sched.RequestState {
	out := l.pendSnap[:0]
	for _, st := range l.byArrival {
		if !st.Running && st.Remaining > 0 {
			out = append(out, st)
		}
	}
	l.pendSnap = out
	return out
}

// setRunning / clearRunning keep l.running in sync with st.Running. All
// Running flips must go through them.
func (l *Loop) setRunning(st *sched.RequestState) {
	if !st.Running {
		st.Running = true
		l.running = append(l.running, st)
	}
}

func (l *Loop) clearRunning(st *sched.RequestState) {
	if !st.Running {
		return
	}
	st.Running = false
	for i, r := range l.running {
		if r == st {
			last := len(l.running) - 1
			l.running[i] = l.running[last]
			l.running[last] = nil
			l.running = l.running[:last]
			return
		}
	}
}

func (l *Loop) snapshotRunning() []*sched.RequestState {
	out := append(l.runSnap[:0], l.running...)
	// l.running is insertion/removal order; sort so scheduler inputs are
	// reproducible (same total order the old map walk produced).
	slices.SortFunc(out, func(a, b *sched.RequestState) int {
		if a.Req.ID < b.Req.ID {
			return -1
		}
		if a.Req.ID > b.Req.ID {
			return 1
		}
		return 0
	})
	l.runSnap = out
	return out
}

// arrivalBefore reports whether a sorts before b in (Arrival, ID) order.
func arrivalBefore(a, b *sched.RequestState) bool {
	if a.Req.Arrival != b.Req.Arrival {
		return a.Req.Arrival < b.Req.Arrival
	}
	return a.Req.ID < b.Req.ID
}

// enqueue makes st pending: appended to l.pending, and inserted into
// l.byArrival after every entry that does not sort after it. Arrivals land
// at the end in O(1); a requeue costs a binary search and one shift.
func (l *Loop) enqueue(st *sched.RequestState) {
	l.pending = append(l.pending, st)
	lo, hi := 0, len(l.byArrival)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arrivalBefore(st, l.byArrival[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l.byArrival = slices.Insert(l.byArrival, lo, st)
}

// removePending takes a request that starts running out of both pending
// indexes: a pointer scan of pending, a binary search of byArrival.
func (l *Loop) removePending(st *sched.RequestState) {
	if i := slices.Index(l.pending, st); i >= 0 {
		l.pending = slices.Delete(l.pending, i, i+1)
	}
	lo, hi := 0, len(l.byArrival)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arrivalBefore(l.byArrival[mid], st) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(l.byArrival); i++ {
		if l.byArrival[i] == st {
			l.byArrival = slices.Delete(l.byArrival, i, i+1)
			return
		}
	}
}

// dropLimit is the absolute instant past which a request is abandoned under
// the timeout policy: arrival + DropLateFactor × SLO. Every drop comparison
// (queued expiry, post-fault requeue, late-delivery timeout) must go through
// DropLimit/pastDrop so sim and driver share one boundary convention: a
// request exactly AT the limit is still in budget; strictly past it is out.
func (l *Loop) dropLimit(r *workload.Request) time.Duration {
	return r.Arrival + time.Duration(float64(r.SLO)*l.cfg.DropLateFactor)
}

// DropLimit exposes the timeout boundary for observers (tests, the router's
// feasibility probe). Zero-valued when dropping is disabled semantics still
// hold: callers must gate on DropLateFactor > 0 themselves, as the loop does.
func (l *Loop) DropLimit(r *workload.Request) time.Duration { return l.dropLimit(r) }

func (l *Loop) pastDrop(now time.Duration, st *sched.RequestState) bool {
	return now > l.dropLimit(st.Req)
}

func (l *Loop) finish(now time.Duration, st *sched.RequestState) {
	r := st.Req
	completion := l.eng.Decode(now, r.Res)
	l.eng.ReleaseLatent(r.ID)
	// Timeout semantics: a result delivered past DropLateFactor × SLO has
	// been abandoned by the client and counts as dropped (Figure 9's
	// "dropped/timeout" population). Shares dropLimit with pastDrop so a
	// completion exactly at the boundary is delivered, never dropped —
	// identical in sim and driver by construction.
	if l.cfg.DropLateFactor > 0 && completion > l.dropLimit(r) {
		l.finalize(now, Outcome{
			ID:           r.ID,
			Res:          r.Res,
			Arrival:      r.Arrival,
			Deadline:     r.Deadline(),
			Dropped:      true,
			Cause:        DropTimeout,
			Steps:        r.Steps - r.SkippedSteps,
			Skipped:      r.SkippedSteps,
			Approximated: st.QualityUsed,
		})
		return
	}
	out := Outcome{
		ID:           r.ID,
		Res:          r.Res,
		Arrival:      r.Arrival,
		Deadline:     r.Deadline(),
		Completion:   completion,
		Met:          completion <= r.Deadline(),
		Latency:      completion - r.Arrival,
		AvgDegree:    st.AvgDegree(),
		Steps:        r.Steps - r.SkippedSteps,
		Skipped:      r.SkippedSteps,
		Approximated: st.QualityUsed,
	}
	l.res.Outcomes = append(l.res.Outcomes, out)
	l.left--
	delete(l.states, r.ID)
	if l.cfg.Hooks.Finished != nil {
		l.cfg.Hooks.Finished(now, out)
	}
	if l.cfg.Trimmer != nil {
		l.cfg.Trimmer.OnComplete(r.Prompt, r.Res, completion)
	}
}

func (l *Loop) drop(now time.Duration, st *sched.RequestState, cause DropCause) {
	r := st.Req
	l.eng.ReleaseLatent(r.ID)
	l.finalize(now, Outcome{
		ID:           r.ID,
		Res:          r.Res,
		Arrival:      r.Arrival,
		Deadline:     r.Deadline(),
		Dropped:      true,
		Cause:        cause,
		Steps:        r.Steps - r.SkippedSteps,
		Skipped:      r.SkippedSteps,
		Approximated: st.QualityUsed,
	})
}

// finalize retires a dropped request (completions go through finish, which
// also feeds the trimmer).
func (l *Loop) finalize(now time.Duration, out Outcome) {
	l.res.Outcomes = append(l.res.Outcomes, out)
	l.left--
	delete(l.states, out.ID)
	if l.cfg.Hooks.Dropped != nil {
		l.cfg.Hooks.Dropped(now, out)
	}
}
