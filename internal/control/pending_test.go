package control

import (
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/core"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
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

// runChurn drives one overloaded loop through every way a request enters or
// leaves the pending set: arrivals in bursts (several per instant, IDs not in
// arrival order), partial blocks that requeue on completion, batched blocks,
// a GPU fault with recovery and one without, a shrink-then-grow resize, and
// queued expiry. onPlan sees every planning context; afterEvent runs after
// every dispatched event.
func runChurn(t *testing.T, s sched.Scheduler, onPlan func(ctx *sched.PlanContext), afterEvent func(l *Loop)) (*Loop, churnStats) {
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
		l.ScheduleArrival(&workload.Request{
			ID:      workload.RequestID((i*53)%n + 1),
			Res:     res,
			Steps:   50,
			Arrival: time.Duration(i/3) * 100 * time.Millisecond,
			SLO:     slo,
		})
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
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
		afterEvent(l)
	}
	return l, st
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
			_, st := runChurn(t, s, func(ctx *sched.PlanContext) {
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
// (Arrival, ID) order, and both drain to empty.
func TestNoFinalizedRequestLeftPending(t *testing.T) {
	var total churnStats
	for _, s := range churnSchedulers() {
		t.Run(s.Name(), func(t *testing.T) {
			l, st := runChurn(t, s, func(*sched.PlanContext) {}, func(l *Loop) {
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
			})
			if len(l.pending) != 0 || len(l.byArrival) != 0 {
				t.Fatalf("drained loop still holds %d pending, %d indexed", len(l.pending), len(l.byArrival))
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
