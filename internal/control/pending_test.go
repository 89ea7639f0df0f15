package control

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// churnStats counts the pending-set transitions a churn run exercised.
type churnStats struct {
	runRequeues     int // members going back to pending after their block ended
	faultRequeues   int
	resizeRequeues  int
	expired         int
	batchedFinishes int
}

// churnOpts varies the churn scenario. cached gives every request a quality
// budget of half its steps and 0.8× its SLO (pair it with a cache-planning
// scheduler). extendAt > 0 extends the loop's profile with extendRes at the
// first event at or past that time — bumping the profile Version — and has
// every fourth later arrival ask for that resolution.
type churnOpts struct {
	cached   bool
	extendAt time.Duration
}

// extendRes is the resolution churnOpts.extendAt profiles on demand.
var extendRes = model.Resolution{W: 768, H: 768}

// runChurn drives one overloaded loop through every way a request enters or
// leaves the pending set: arrivals in bursts (several per instant, IDs not in
// arrival order), partial blocks that requeue on completion, batched blocks,
// a GPU fault with recovery and one without, a shrink-then-grow resize, and
// queued expiry. onPlan sees every planning context; afterEvent runs after
// every dispatched event.
func runChurn(t *testing.T, s sched.Scheduler, opts churnOpts, onPlan func(ctx *sched.PlanContext), afterEvent func(l *Loop)) (*Loop, churnStats) {
	t.Helper()
	const n = 150
	clk := clock.NewVirtual()
	cfg := testConfig(s)
	cfg.DropLateFactor = 1.5
	cfg.Strict = true
	var l *Loop
	var st churnStats
	cfg.Hooks.PlanComputed = func(_, _ time.Duration, ctx *sched.PlanContext) {
		onPlan(ctx)
	}
	cfg.Hooks.RunFinished = func(_ time.Duration, run *engine.Run) {
		if run.Batched {
			st.batchedFinishes++
		}
		for _, id := range run.Asg.Requests {
			if steps, ok := run.Steps[id]; ok && l.states[id].Remaining > steps {
				st.runRequeues++
			}
		}
	}
	cfg.Hooks.Requeued = func(_ time.Duration, _ workload.RequestID, cause RequeueCause) {
		if cause == RequeueFault {
			st.faultRequeues++
		} else {
			st.resizeRequeues++
		}
	}
	cfg.Hooks.Dropped = func(_ time.Duration, o Outcome) {
		if o.Cause == DropExpired {
			st.expired++
		}
	}
	var err error
	if l, err = New(cfg, clk); err != nil {
		t.Fatal(err)
	}
	resList := []model.Resolution{model.Res256, model.Res256, model.Res512, model.Res1024, model.Res2048}
	for i := 0; i < n; i++ {
		res := resList[i%len(resList)]
		slo := time.Duration(res.Pixels()/(256*256)) * 1500 * time.Millisecond
		if i%7 == 0 {
			slo = 300 * time.Millisecond // too tight to start: expires queued
		}
		arrival := time.Duration(i/3) * 100 * time.Millisecond
		if opts.extendAt > 0 && arrival > opts.extendAt && i%4 == 0 {
			res = extendRes
		}
		r := &workload.Request{
			ID:      workload.RequestID((i*53)%n + 1),
			Res:     res,
			Steps:   50,
			Arrival: arrival,
			SLO:     slo,
		}
		if opts.cached {
			r.QualityBudget = r.Steps / 2
			r.SLO = r.SLO * 4 / 5 // tight enough that some requests need a rescue
		}
		l.ScheduleArrival(r)
	}
	l.ScheduleFault(simgpu.Fault{GPU: 3, FailAt: 1200 * time.Millisecond, RecoverAt: 3 * time.Second})
	l.ScheduleFault(simgpu.Fault{GPU: 6, FailAt: 2600 * time.Millisecond})
	l.ScheduleResize(simgpu.Resize{At: 2 * time.Second, NewMask: simgpu.MaskRange(0, 4)})
	l.ScheduleResize(simgpu.Resize{At: 3500 * time.Millisecond, NewMask: simgpu.MaskRange(0, 8)})
	l.Begin()
	for guard := 0; l.Unfinished() > 0; guard++ {
		if guard > 1_000_000 {
			t.Fatal("loop did not converge")
		}
		ev := l.PopEvent()
		if ev == nil {
			t.Fatalf("deadlock: %d unfinished, no events", l.Unfinished())
		}
		clk.Advance(ev.At)
		if opts.extendAt > 0 && ev.At >= opts.extendAt && !cfg.Profile.Has(extendRes) {
			cfg.Profile.Extend(costmodel.NewEstimator(cfg.Model, cfg.Topo), extendRes)
		}
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
		afterEvent(l)
	}
	return l, st
}

// hiddenLateness forwards every capability of a core.Scheduler except its
// lateness rule, so the loop hands it unsplit contexts and it splits each
// one itself with sched.SplitPending.
type hiddenLateness struct{ s *core.Scheduler }

func (h hiddenLateness) Name() string                                   { return h.s.Name() }
func (h hiddenLateness) RoundDuration() time.Duration                   { return h.s.RoundDuration() }
func (h hiddenLateness) Plan(ctx *sched.PlanContext) []sched.Assignment { return h.s.Plan(ctx) }
func (h hiddenLateness) Overhead() time.Duration                        { return h.s.Overhead() }
func (h hiddenLateness) EagerAdmission() bool                           { return h.s.EagerAdmission() }
func (h hiddenLateness) MaxCacheInterval() int                          { return h.s.MaxCacheInterval() }

// TestSplitTrackerMatchesUnsplitPlanning is the split's metamorphic test:
// the churn scenario, with caching off and on and with a mid-run profile
// extension that forces a full re-split, serves every request identically
// whether the loop keeps the on-time/late split or the planner re-splits the
// whole backlog itself every round.
func TestSplitTrackerMatchesUnsplitPlanning(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts churnOpts
	}{
		{"plain", churnOpts{}},
		{"cached", churnOpts{cached: true}},
		{"extend", churnOpts{extendAt: 2 * time.Second}},
		{"cached+extend", churnOpts{cached: true, extendAt: 2 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *core.Scheduler {
				cfg := core.DefaultConfig()
				if tc.opts.cached {
					cfg.MaxCacheInterval = 4
				}
				return core.NewScheduler(testConfig(nil).Profile, simgpu.H100x8(), cfg)
			}
			var splitPlans, latePlans int
			split, _ := runChurn(t, mk(), tc.opts, func(ctx *sched.PlanContext) {
				if !ctx.Split {
					t.Fatal("loop handed a lateness-aware scheduler an unsplit context")
				}
				splitPlans++
				if len(ctx.Late) > 0 {
					latePlans++
				}
			}, func(*Loop) {})
			unsplit, _ := runChurn(t, hiddenLateness{mk()}, tc.opts, func(ctx *sched.PlanContext) {
				if ctx.Split {
					t.Fatal("loop split the backlog for a scheduler without a lateness rule")
				}
			}, func(*Loop) {})
			a, b := split.Result(), unsplit.Result()
			if a.PlanCalls != b.PlanCalls {
				t.Fatalf("plan calls: split %d, unsplit %d", a.PlanCalls, b.PlanCalls)
			}
			if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
				t.Fatalf("outcomes diverge:\n  split: %+v\nunsplit: %+v", a.Outcomes, b.Outcomes)
			}
			if !reflect.DeepEqual(a.Runs, b.Runs) {
				t.Fatalf("runs diverge:\n  split: %+v\nunsplit: %+v", a.Runs, b.Runs)
			}
			if latePlans == 0 || latePlans == splitPlans {
				t.Fatalf("%d of %d plans saw a late backlog; the scenario must mix both", latePlans, splitPlans)
			}
			cachedRuns := 0
			for _, r := range a.Runs {
				if r.CacheInterval > 1 {
					cachedRuns++
				}
			}
			if tc.opts.cached != (cachedRuns > 0) {
				t.Fatalf("%d cache-assisted blocks with caching %v", cachedRuns, tc.opts.cached)
			}
			extended := 0
			for _, o := range a.Outcomes {
				if o.Res == extendRes {
					extended++
				}
			}
			if (tc.opts.extendAt > 0) != (extended > 0) {
				t.Fatalf("%d requests at the extended resolution with extendAt %v", extended, tc.opts.extendAt)
			}
		})
	}
}

// churnSchedulers covers a round-based loop (partial blocks, batching,
// resizes staged to round ticks) and an event-driven one (resizes preempt
// in-flight blocks at once).
func churnSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		core.NewScheduler(testConfig(nil).Profile, simgpu.H100x8(), core.DefaultConfig()),
		sched.NewFixedSP(2),
	}
}

// TestPlanContextPendingInArrivalOrder: whatever requeued a request (its
// block ending with steps left, a fault, a resize), every plan sees the
// pending set in (Arrival, ID) order.
func TestPlanContextPendingInArrivalOrder(t *testing.T) {
	var total churnStats
	for _, s := range churnSchedulers() {
		t.Run(s.Name(), func(t *testing.T) {
			_, st := runChurn(t, s, churnOpts{}, func(ctx *sched.PlanContext) {
				for i := 1; i < len(ctx.Pending); i++ {
					a, b := ctx.Pending[i-1].Req, ctx.Pending[i].Req
					if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.ID >= b.ID) {
						t.Fatalf("pending[%d] (arrival %v, id %d) before pending[%d] (arrival %v, id %d)",
							i-1, a.Arrival, a.ID, i, b.Arrival, b.ID)
					}
				}
			}, func(*Loop) {})
			total.runRequeues += st.runRequeues
			total.faultRequeues += st.faultRequeues
			total.resizeRequeues += st.resizeRequeues
		})
	}
	if !t.Failed() && (total.runRequeues == 0 || total.faultRequeues == 0 || total.resizeRequeues == 0) {
		t.Fatalf("churn missed a requeue path: %+v", total)
	}
}

// TestNoFinalizedRequestLeftPending: after every event, each pending entry
// is a tracked, non-running request (finalizing deletes a request from the
// tracker), the arrival-ordered index holds exactly the pending set in
// (Arrival, ID) order, the on-time and late tiers hold exactly that index in
// their own orders, and all of them drain to empty. Every plan sees only
// requests that are not running and have steps left.
func TestNoFinalizedRequestLeftPending(t *testing.T) {
	var total churnStats
	for _, s := range churnSchedulers() {
		t.Run(s.Name(), func(t *testing.T) {
			l, st := runChurn(t, s, churnOpts{}, func(ctx *sched.PlanContext) {
				for _, p := range ctx.Pending {
					if p.Running || p.Remaining <= 0 {
						t.Fatalf("planner handed request %d (running %v, %d steps left) as pending", p.Req.ID, p.Running, p.Remaining)
					}
				}
			}, func(l *Loop) {
				if len(l.byArrival) != len(l.pending) {
					t.Fatalf("arrival index holds %d requests, pending %d", len(l.byArrival), len(l.pending))
				}
				in := make(map[*sched.RequestState]bool, len(l.pending))
				for _, p := range l.pending {
					if l.states[p.Req.ID] != p {
						t.Fatalf("finalized request %d left pending", p.Req.ID)
					}
					if p.Running {
						t.Fatalf("running request %d left pending", p.Req.ID)
					}
					in[p] = true
				}
				for i, p := range l.byArrival {
					if !in[p] {
						t.Fatalf("arrival index holds request %d twice or not pending", p.Req.ID)
					}
					delete(in, p)
					if i > 0 && arrivalBefore(p, l.byArrival[i-1]) {
						t.Fatalf("arrival index out of order at %d", i)
					}
				}
				if l.lateness == nil {
					if len(l.onTime)+len(l.late) != 0 {
						t.Fatalf("loop without a lateness rule split %d requests", len(l.onTime)+len(l.late))
					}
					return
				}
				// The two tiers hold exactly the arrival index, each in its
				// own order.
				if len(l.onTime)+len(l.late) != len(l.byArrival) {
					t.Fatalf("split holds %d+%d requests, arrival index %d", len(l.onTime), len(l.late), len(l.byArrival))
				}
				tiered := make(map[*sched.RequestState]bool, len(l.byArrival))
				for i, p := range l.onTime {
					tiered[p] = true
					if i > 0 && !arrivalBefore(l.onTime[i-1], p) {
						t.Fatalf("on-time tier out of arrival order at %d", i)
					}
				}
				for i, p := range l.late {
					tiered[p] = true
					if i > 0 && !deadlineOrder.before(l.late[i-1], p) {
						t.Fatalf("late tier out of deadline order at %d", i)
					}
				}
				for _, p := range l.byArrival {
					if !tiered[p] {
						t.Fatalf("pending request %d is in neither tier", p.Req.ID)
					}
				}
			})
			if len(l.pending) != 0 || len(l.byArrival) != 0 || len(l.onTime) != 0 || len(l.late) != 0 {
				t.Fatalf("drained loop still holds %d pending, %d indexed, %d+%d split",
					len(l.pending), len(l.byArrival), len(l.onTime), len(l.late))
			}
			total.expired += st.expired
			total.batchedFinishes += st.batchedFinishes
			total.faultRequeues += st.faultRequeues
			total.resizeRequeues += st.resizeRequeues
		})
	}
	if !t.Failed() && (total.expired == 0 || total.batchedFinishes == 0 || total.faultRequeues == 0 || total.resizeRequeues == 0) {
		t.Fatalf("churn missed a path: %+v", total)
	}
}

// TestSplitFollowsProfileRecalibration: a profile Version bump re-judges the
// whole backlog. Recalibrating the cached-step cost moves cache-aware
// lateness thresholds both ways — cheaper rescues turn late requests back on
// time — and after every sweep the loop's tiers are exactly what
// sched.SplitPending derives from scratch.
func TestSplitFollowsProfileRecalibration(t *testing.T) {
	schedCfg := core.DefaultConfig()
	schedCfg.MaxCacheInterval = 4
	cfg := testConfig(nil)
	s := core.NewScheduler(cfg.Profile, cfg.Topo, schedCfg)
	cfg.Scheduler = s
	l, err := New(cfg, clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	resList := model.StandardResolutions()
	for i := 0; i < 200; i++ {
		r := &workload.Request{
			ID:            workload.RequestID(i),
			Res:           resList[rng.Intn(len(resList))],
			Steps:         50,
			QualityBudget: 25,
			Arrival:       time.Duration(rng.Intn(2000)) * time.Millisecond,
			SLO:           time.Duration(500+rng.Intn(8000)) * time.Millisecond,
		}
		st := &sched.RequestState{Req: r, Remaining: 50 - rng.Intn(20)}
		l.states[r.ID] = st
		l.enqueue(st)
	}
	revived := 0
	now := time.Duration(0)
	for _, gamma := range []float64{1, 0.3, 1, 0.05, 0.6} {
		before := len(l.onTime)
		cfg.Profile.SetCachedStepRelCost(gamma)
		for i := 0; i < 5; i++ {
			l.splitPending(now)
			if i == 0 && len(l.onTime) > before {
				revived++
			}
			ref := sched.PlanContext{Now: now, Pending: l.byArrival, Profile: cfg.Profile}
			sched.SplitPending(&ref, s)
			if !slices.Equal(l.onTime, ref.OnTime) || !slices.Equal(l.late, ref.Late) {
				t.Fatalf("γ=%v at %v: loop split %d/%d, reference %d/%d", gamma, now,
					len(l.onTime), len(l.late), len(ref.OnTime), len(ref.Late))
			}
			now += 150 * time.Millisecond
		}
	}
	if revived == 0 {
		t.Fatal("no recalibration turned a late request back on time")
	}
}
