package sim

import (
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// shardSpecs builds n identical TetriServe shards of `gpus` GPUs each.
func shardSpecs(n, gpus int) []ShardSpec {
	specs := make([]ShardSpec, n)
	for i := range specs {
		topo := simgpu.H100xN(gpus)
		prof := costmodel.BuildProfile(costmodel.NewEstimator(testMdl, topo), costmodel.ProfilerConfig{})
		specs[i] = ShardSpec{
			Topo:      topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Profile:   prof,
		}
	}
	return specs
}

func smallMixTrace(n int, seed uint64, perMinute, scale float64) []*workload.Request {
	// 2-GPU shards: keep shapes the small pools can win.
	mix, err := workload.CustomMix("small",
		[]model.Resolution{model.Res256, model.Res512, model.Res1024},
		[]float64{0.4, 0.4, 0.2})
	if err != nil {
		panic(err)
	}
	return workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         mix,
		Arrivals:    workload.NewBurstyArrivals(perMinute),
		SLO:         workload.NewSLOPolicy(scale),
		NumRequests: n,
		Seed:        seed,
	})
}

func TestRunShardedCompletesAndAccounts(t *testing.T) {
	trace := smallMixTrace(60, 5, 40, 1.5)
	res, err := RunSharded(ShardedConfig{
		Model:           testMdl,
		Shards:          shardSpecs(4, 2),
		Requests:        trace,
		DropLateFactor:  4.0,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Conservation: every offered request is exactly one of routed-and-
	// finalized or rejected.
	if got := res.Offered(); got != len(trace) {
		t.Fatalf("offered %d != trace %d", got, len(trace))
	}
	if res.Router.Decisions != len(trace) {
		t.Fatalf("router saw %d decisions, want %d", res.Router.Decisions, len(trace))
	}
	if res.Router.Routed != len(res.Routed) {
		t.Fatalf("routed count %d != routed map %d", res.Router.Routed, len(res.Routed))
	}
	if res.Router.Routed+res.Router.Infeasible+res.Router.Shed != len(trace) {
		t.Fatalf("decisions don't partition the trace: %+v", res.Router)
	}
	admitted := 0
	for i, s := range res.Shards {
		admitted += len(s.Outcomes)
		if len(s.Outcomes) != res.Router.Shards[i].Routed {
			t.Fatalf("shard %d finalized %d, router sent %d", i, len(s.Outcomes), res.Router.Shards[i].Routed)
		}
	}
	if admitted != res.Router.Routed {
		t.Fatalf("shards finalized %d, router admitted %d", admitted, res.Router.Routed)
	}

	// Admitted requests were deemed winnable; most should actually win.
	met := 0
	for _, s := range res.Shards {
		for _, o := range s.Outcomes {
			if o.Met {
				met++
			}
		}
	}
	if admitted > 0 && float64(met)/float64(admitted) < 0.5 {
		t.Fatalf("only %d/%d admitted requests met their SLO — probe badly miscalibrated", met, admitted)
	}
}

func TestRunShardedDeterministic(t *testing.T) {
	run := func() *ShardedResult {
		res, err := RunSharded(ShardedConfig{
			Model:          testMdl,
			Shards:         shardSpecs(2, 2),
			Requests:       smallMixTrace(40, 9, 30, 1.5),
			DropLateFactor: 4.0,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Router.Decisions != b.Router.Decisions ||
		a.Router.Routed != b.Router.Routed || a.Router.Infeasible != b.Router.Infeasible {
		t.Fatalf("router stats diverged:\n%+v\n%+v", a.Router, b.Router)
	}
	for id, shard := range a.Routed {
		if b.Routed[id] != shard {
			t.Fatalf("request %d routed to %d then %d", id, shard, b.Routed[id])
		}
	}
	for i := range a.Shards {
		if len(a.Shards[i].Outcomes) != len(b.Shards[i].Outcomes) {
			t.Fatalf("shard %d outcome counts diverged", i)
		}
		for j := range a.Shards[i].Outcomes {
			if a.Shards[i].Outcomes[j] != b.Shards[i].Outcomes[j] {
				t.Fatalf("shard %d outcome %d diverged", i, j)
			}
		}
	}
}

// TestRunShardedHopelessSLOsRejectedEarly: deadlines below best-case service
// must be rejected at admission, burning zero GPU time, with the router's
// verdict preserved for each.
func TestRunShardedHopelessSLOsRejectedEarly(t *testing.T) {
	trace := smallMixTrace(20, 3, 30, 1.5)
	for _, r := range trace {
		r.SLO = time.Millisecond
	}
	res, err := RunSharded(ShardedConfig{
		Model:    testMdl,
		Shards:   shardSpecs(2, 2),
		Requests: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != len(trace) {
		t.Fatalf("rejected %d, want all %d", len(res.Rejected), len(trace))
	}
	for _, rr := range res.Rejected {
		if rr.Decision.Reason != router.ReasonInfeasible {
			t.Fatalf("request %d rejected for %q, want infeasible", rr.Req.ID, rr.Decision.Reason)
		}
		if rr.Decision.RetryAfter <= 0 {
			t.Fatalf("request %d missing Retry-After hint", rr.Req.ID)
		}
	}
	for i, s := range res.Shards {
		if len(s.Outcomes) != 0 || s.GPUBusySeconds != 0 {
			t.Fatalf("shard %d did work for rejected traffic: %d outcomes, %f busy",
				i, len(s.Outcomes), s.GPUBusySeconds)
		}
	}
}

// TestRunShardedHeterogeneousShards routes across unequal pools: the bigger
// shard must absorb more of the load.
func TestRunShardedHeterogeneousShards(t *testing.T) {
	big := simgpu.H100xN(8)
	small := simgpu.H100xN(2)
	bigProf := costmodel.BuildProfile(costmodel.NewEstimator(testMdl, big), costmodel.ProfilerConfig{})
	smallProf := costmodel.BuildProfile(costmodel.NewEstimator(testMdl, small), costmodel.ProfilerConfig{})
	res, err := RunSharded(ShardedConfig{
		Model: testMdl,
		Shards: []ShardSpec{
			{Name: "big", Topo: big, Scheduler: core.NewScheduler(bigProf, big, core.DefaultConfig()), Profile: bigProf},
			{Name: "small", Topo: small, Scheduler: core.NewScheduler(smallProf, small, core.DefaultConfig()), Profile: smallProf},
		},
		Requests:       genTrace(80, 11, 1.2),
		DropLateFactor: 4.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Router.Shards[0].Routed <= res.Router.Shards[1].Routed {
		t.Fatalf("8-GPU shard took %d, 2-GPU took %d — slack routing should favor the bigger pool",
			res.Router.Shards[0].Routed, res.Router.Shards[1].Routed)
	}
}

// TestRunShardedTenantAccounting: the Tenant hook feeds the router's
// per-tenant ledger.
func TestRunShardedTenantAccounting(t *testing.T) {
	trace := smallMixTrace(30, 7, 30, 1.5)
	res, err := RunSharded(ShardedConfig{
		Model:    testMdl,
		Shards:   shardSpecs(2, 2),
		Requests: trace,
		Tenant: func(r *workload.Request) string {
			if r.ID%2 == 0 {
				return "even"
			}
			return "odd"
		},
		DropLateFactor: 4.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Router.Tenants) != 2 {
		t.Fatalf("tenants %+v", res.Router.Tenants)
	}
	total := 0
	for _, ts := range res.Router.Tenants {
		total += ts.Admitted + ts.Rejected
	}
	if total != len(trace) {
		t.Fatalf("tenant ledger covers %d of %d", total, len(trace))
	}
}

var _ sched.Scheduler = (*core.Scheduler)(nil)

// TestRunShardedLedgersFollowShardTraffic: each shard's result ledgers grow
// with the traffic that shard handles. A whole-trace size hint would
// reserve every shard's ledgers for all of the requests instead.
func TestRunShardedLedgersFollowShardTraffic(t *testing.T) {
	trace := smallMixTrace(400, 11, 160, 1.5)
	res, err := RunSharded(ShardedConfig{
		Model:          testMdl,
		Shards:         shardSpecs(4, 2),
		Requests:       trace,
		DropLateFactor: 4.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	fits := func(n, c int) bool { return c <= 2*n+64 }
	for i, s := range res.Shards {
		if len(s.Outcomes) == 0 {
			t.Fatalf("shard %d handled no requests; the trace does not exercise the fleet", i)
		}
		if !fits(len(s.Outcomes), cap(s.Outcomes)) {
			t.Errorf("shard %d: Outcomes cap %d for %d outcomes", i, cap(s.Outcomes), len(s.Outcomes))
		}
		if !fits(len(s.Runs), cap(s.Runs)) {
			t.Errorf("shard %d: Runs cap %d for %d runs", i, cap(s.Runs), len(s.Runs))
		}
		if !fits(len(s.PlanLatencies), cap(s.PlanLatencies)) {
			t.Errorf("shard %d: PlanLatencies cap %d for %d plans", i, cap(s.PlanLatencies), len(s.PlanLatencies))
		}
	}
}
