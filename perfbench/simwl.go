package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/rebalance"
	"tetriserve/internal/router"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

const (
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 7
	// tracedEpisodes is how many episodes a traced run replays (untraced,
	// then traced).
	tracedEpisodes = 4
	// checkedEpisodes is how many episodes the correctness pass replays
	// with the invariant oracle attached.
	checkedEpisodes = 2
)

// Workload constants. The single-loop capacity figure comes from replaying
// uniform FLUX traces on one 8×H100 loop: ≈11.7 GPU-busy seconds per
// request, so eight GPUs serve ≈41 requests per minute.
const (
	loopCapacityPerMin = 41.0
	deepOverload       = 1.2
	fleetShards        = 16
	fleetShardGPUs     = 2
	// fleetRatePerMin is elastic1's offered rate per GPU (30/min over eight
	// GPUs) scaled to the fleet's 32 GPUs.
	fleetRatePerMin = 30.0 * fleetShards * fleetShardGPUs / 8
	fleetSLOScale   = 1.2
	// maxVirtual covers the longest overload episode with a wide margin (the
	// simulator's 4 h default aborts long overload traces).
	maxVirtual = 1000 * time.Hour
)

// simWorkload describes one simulator workload: the seeded traces a run
// replays and how one replay is configured.
type simWorkload struct {
	// episodes is how many distinct seeded traces one run replays: one pass
	// takes about 20 s on a 2-vCPU host. The figures vary more between
	// traces than between replays of one, so distinct traces steady them
	// more than repeats do.
	episodes int
	// requests is each episode's length; trace generates an episode from
	// its seed.
	requests int
	trace    func(mdl *model.Model, n int, seed uint64) []*workload.Request
	// loops is the number of control loops (shards) a replay runs, each
	// on an 8×H100 topology owning gpusPerLoop GPUs.
	loops, gpusPerLoop int
	// config builds every loop's scheduler configuration.
	config func() core.Config
	// run replays one episode with one scheduler per loop.
	run func(fx *simFixture, reqs []*workload.Request, scheds []sched.Scheduler, sink *spanSink, checkInvariants bool) (*replay, error)
}

var (
	simDeep = simWorkload{
		episodes:    24,
		requests:    2400,
		trace:       deepTrace(1.0, false),
		loops:       1,
		gpusPerLoop: 8,
		config:      core.DefaultConfig,
		run:         runSingle,
	}
	simDeepCached = simWorkload{
		episodes:    24,
		requests:    2400,
		trace:       deepTrace(0.8, true),
		loops:       1,
		gpusPerLoop: 8,
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.MaxCacheInterval = 4
			return cfg
		},
		run: runSingle,
	}
	simFleet = simWorkload{
		episodes:    120,
		requests:    3000,
		trace:       shiftingTrace,
		loops:       fleetShards,
		gpusPerLoop: fleetShardGPUs,
		config:      core.DefaultConfig,
		run:         runFleet,
	}
)

// simFixture is a run's set-up: the model, one topology and profile per
// loop, and the episode traces.
type simFixture struct {
	mdl    *model.Model
	topos  []*simgpu.Topology
	profs  []*costmodel.Profile
	traces [][]*workload.Request
	// genTime and profTime split the set-up between trace generation and
	// profile builds.
	genTime, profTime time.Duration
}

// replay is one replay's outcome. results is dropped once summarized, so a
// run's memory does not grow with its length.
type replay struct {
	// wall is the replay's wall time, cpu the process CPU time it used.
	wall     time.Duration
	cpu      time.Duration
	results  []*control.Result
	rejected []workload.RequestID
	router   router.Stats
	moves    int
	// alloc is the bytes allocated during the replay; retained the heap
	// still live after it (with the result held) minus the heap before.
	alloc, retained float64
	fp              uint64
}

// deepTrace is the bursty uniform FLUX mix at 1.2× one loop's capacity;
// budget grants every request a quality budget of half its steps.
func deepTrace(sloScale float64, budget bool) func(*model.Model, int, uint64) []*workload.Request {
	return func(mdl *model.Model, n int, seed uint64) []*workload.Request {
		reqs := workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         workload.UniformMix(),
			Arrivals:    workload.NewBurstyArrivals(deepOverload * loopCapacityPerMin),
			SLO:         workload.NewSLOPolicy(sloScale),
			NumRequests: n,
			Seed:        seed,
		})
		pinRate(reqs, deepOverload*loopCapacityPerMin)
		if budget {
			for _, r := range reqs {
				r.QualityBudget = r.Steps / 2
			}
		}
		return reqs
	}
}

// shiftingTrace is elastic1's shape: bursty arrivals whose mix flips from
// image-heavy to high-res-heavy halfway through.
func shiftingTrace(mdl *model.Model, n int, seed uint64) []*workload.Request {
	res := []model.Resolution{model.Res256, model.Res512, model.Res1024}
	gen := func(name string, weights []float64, n int, seed uint64) []*workload.Request {
		mix, err := workload.CustomMix(name, res, weights)
		if err != nil {
			panic(err) // constant weights
		}
		reqs := workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         mix,
			Arrivals:    workload.NewBurstyArrivals(fleetRatePerMin),
			SLO:         workload.NewSLOPolicy(fleetSLOScale),
			NumRequests: n,
			Seed:        seed,
		})
		pinRate(reqs, fleetRatePerMin)
		return reqs
	}
	half := n / 2
	first := gen("image-heavy", []float64{0.50, 0.40, 0.10}, half, seed)
	second := gen("hires-heavy", []float64{0.15, 0.15, 0.70}, n-half, seed+1)
	offset := first[len(first)-1].Arrival
	for _, r := range second {
		r.ID += workload.RequestID(half)
		r.Arrival += offset
	}
	return append(first, second...)
}

// pinRate rescales a trace's arrival times so its mean rate is exactly
// perMin. Bursts keep their shape; what goes is the episode-to-episode drift
// of the mean rate, which near capacity decides how fast the queue grows and
// would otherwise dominate every figure's spread across seeds.
func pinRate(reqs []*workload.Request, perMin float64) {
	target := float64(len(reqs)) / perMin * float64(time.Minute)
	k := target / float64(reqs[len(reqs)-1].Arrival)
	for _, r := range reqs {
		r.Arrival = time.Duration(float64(r.Arrival) * k)
	}
}

// runSingle replays an episode on one control loop (sim.Run), without
// timeouts.
func runSingle(fx *simFixture, reqs []*workload.Request, scheds []sched.Scheduler, _ *spanSink, check bool) (*replay, error) {
	r := &replay{}
	err := measure(r, func() error {
		res, err := sim.Run(sim.Config{
			Model:           fx.mdl,
			Topo:            fx.topos[0],
			Scheduler:       scheds[0],
			Requests:        reqs,
			Profile:         fx.profs[0],
			CheckInvariants: check,
			MaxVirtualTime:  maxVirtual,
		})
		if err == nil {
			r.results = []*control.Result{res}
		}
		return err
	})
	return r, err
}

// runFleet replays an episode through the router over the elastic fleet
// (sim.RunSharded with rebalancing and a lifecycle span sink), with
// elastic1's timeout policy.
func runFleet(fx *simFixture, reqs []*workload.Request, scheds []sched.Scheduler, sink *spanSink, check bool) (*replay, error) {
	r := &replay{}
	specs := make([]sim.ShardSpec, len(scheds))
	for i := range specs {
		specs[i] = sim.ShardSpec{
			Name:      fmt.Sprintf("shard%d", i),
			Topo:      fx.topos[i],
			Scheduler: scheds[i],
			Profile:   fx.profs[i],
			Capacity:  simgpu.MaskRange(0, fleetShardGPUs),
		}
	}
	err := measure(r, func() error {
		res, err := sim.RunSharded(sim.ShardedConfig{
			Model:    fx.mdl,
			Shards:   specs,
			Requests: reqs,
			Rebalance: &sim.RebalanceConfig{
				Policy:        rebalance.New(rebalance.DefaultConfig()),
				ProbeSLOScale: fleetSLOScale,
			},
			SpanSink:        sink,
			DropLateFactor:  4.0,
			CheckInvariants: check,
			MaxVirtualTime:  maxVirtual,
		})
		if err == nil {
			r.results = res.Shards
			r.router = res.Router
			r.moves = len(res.Rebalances)
			for _, rj := range res.Rejected {
				r.rejected = append(r.rejected, rj.Req.ID)
			}
		}
		return err
	})
	return r, err
}

// measure times fn from a freshly collected heap and records its wall time,
// bytes allocated, bytes retained and fingerprint. A panic (the simulator's
// strict mode reports invariant violations that way) becomes an error.
func measure(r *replay, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start, cpu0 := time.Now(), cpuTime()
	err = fn()
	r.wall, r.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	r.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if err == nil {
		r.fp = fingerprint(r)
	}
	return err
}

// episodeSeed derives episode i's trace seed from the run seed.
func episodeSeed(seed uint64, i int) uint64 { return seed*1009 + uint64(i) + 1 }

// setup generates the traces and builds the profiles, and (timed with them)
// one set of schedulers; replays build their own.
func (w simWorkload) setup(seed uint64) *simFixture {
	fx := &simFixture{mdl: model.FLUX()}
	start := time.Now()
	for i := 0; i < w.episodes; i++ {
		fx.traces = append(fx.traces, w.trace(fx.mdl, w.requests, episodeSeed(seed, i)))
	}
	fx.genTime = time.Since(start)
	start = time.Now()
	for i := 0; i < w.loops; i++ {
		topo := simgpu.H100x8()
		fx.topos = append(fx.topos, topo)
		fx.profs = append(fx.profs, costmodel.BuildProfile(costmodel.NewEstimator(fx.mdl, topo), costmodel.ProfilerConfig{}))
	}
	fx.profTime = time.Since(start)
	w.schedulers(fx, nil, 0)
	return fx
}

// schedulers builds one fresh scheduler per loop; with a tracer each is
// wrapped to record core.Plan spans under parent.
func (w simWorkload) schedulers(fx *simFixture, tr *tracer, parent int) []sched.Scheduler {
	out := make([]sched.Scheduler, w.loops)
	for i := range out {
		s := core.NewScheduler(fx.profs[i], fx.topos[i], w.config())
		if tr != nil {
			out[i] = &timedScheduler{Scheduler: s, tr: tr, parent: parent}
		} else {
			out[i] = s
		}
	}
	return out
}

// replayEpisode runs episode ep on a copy of its trace (the sharded harness
// stamps trace IDs onto requests). With a tracer it records a root span
// around the run and the scheduler and sink spans under it.
func (w simWorkload) replayEpisode(fx *simFixture, ep int, tr *tracer, sink *spanSink, check bool) (*replay, error) {
	reqs := make([]*workload.Request, len(fx.traces[ep]))
	for i, r := range fx.traces[ep] {
		c := *r
		reqs[i] = &c
	}
	parent := -1
	if tr != nil {
		root := "sim.Run"
		if w.loops > 1 {
			root = "sim.RunSharded"
		}
		parent = tr.begin(root, -1, fmt.Sprintf("episode-%d", ep))
		defer tr.end(parent)
		sink.tr, sink.parent = tr, parent
	}
	return w.run(fx, reqs, w.schedulers(fx, tr, parent), sink, check)
}

// fingerprint hashes everything a replay decided: per-loop outcomes, block
// counts and GPU time, rejections and rebalance moves. Two replays of one
// trace must agree bit for bit.
func fingerprint(r *replay) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, res := range r.results {
		put(int64(len(res.Outcomes)), int64(len(res.Runs)), int64(res.RoundTicks), int64(math.Float64bits(res.GPUBusySeconds)))
		for _, oc := range res.Outcomes {
			put(int64(oc.ID), int64(oc.Completion), b2i(oc.Dropped), b2i(oc.Met), int64(oc.Steps),
				int64(oc.Approximated), int64(math.Float64bits(oc.AvgDegree)))
		}
	}
	for _, id := range r.rejected {
		put(int64(id))
	}
	put(int64(r.moves))
	return h.Sum64()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// conservation checks that every offered request was either rejected or
// has exactly one terminal outcome.
func conservation(trace []*workload.Request, r *replay) error {
	seen := make(map[workload.RequestID]int, len(trace))
	for _, res := range r.results {
		for _, oc := range res.Outcomes {
			seen[oc.ID]++
		}
	}
	for _, id := range r.rejected {
		seen[id]++
	}
	for _, req := range trace {
		if n := seen[req.ID]; n != 1 {
			return fmt.Errorf("request %d has %d terminal outcomes or rejections, want 1", req.ID, n)
		}
	}
	if len(seen) != len(trace) {
		return fmt.Errorf("%d distinct requests resolved, %d offered", len(seen), len(trace))
	}
	return nil
}

// simRun accumulates a run's replays.
type simRun struct {
	offered int
	stats   loopStats
	// cpus, allocs and retained hold each episode's per-replay figures;
	// fps its first replay's fingerprint.
	cpus, allocs, retained [][]float64
	fps                    []uint64
	// latP99 holds each episode's p99 of completed requests' latency; the
	// metric takes the median episode, so one trace's extreme tail does not
	// decide it. planMS pools the loops' Plan latencies in milliseconds.
	latP99, planMS []float64
}

// record adds a replay of episode ep. The first replay of an episode is
// checked for conservation and summarized; later ones must decide
// identically and only add cost figures.
func (s *simRun) record(fx *simFixture, ep int, r *replay, gpus int, rep *report) {
	s.cpus[ep] = append(s.cpus[ep], r.cpu.Seconds())
	s.allocs[ep] = append(s.allocs[ep], r.alloc)
	s.retained[ep] = append(s.retained[ep], r.retained)
	if len(s.cpus[ep]) > 1 {
		if r.fp != s.fps[ep] {
			rep.fail("episode %d: a replay decided differently from the first", ep)
		}
		return
	}
	s.fps[ep] = r.fp
	if err := conservation(fx.traces[ep], r); err != nil {
		rep.fail("episode %d conservation: %v", ep, err)
	}
	s.offered += len(fx.traces[ep])
	before := len(s.stats.latency)
	s.stats.add(r.results, gpus)
	s.latP99 = append(s.latP99, quantile(slices.Clone(s.stats.latency[before:]), 0.99))
	for _, res := range r.results {
		s.planMS = append(s.planMS, scale(seconds(res.PlanLatencies), 1e3)...)
	}
}

// attainment is the paper's SLO attainment over the offered load: requests
// that met their deadline ÷ requests offered. Router rejections and drops
// are offered requests that did not meet it.
func (s *simRun) attainment() float64 { return ratio(float64(s.stats.met), float64(s.offered)) }

// runSim runs one simulator workload: set-up repeated setupReps times, then
// the timed replays (one pass over every episode, then more replays until
// the window is spent) or the traced replays, then the untimed correctness
// pass.
func runSim(w simWorkload, opts options) (*report, error) {
	rep := &report{metrics: metricSet{}}
	var fx *simFixture
	var setupS, genMS, profMS []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, so the previous one's
		// garbage does not decide when its collections run.
		fx = nil
		runtime.GC()
		start := time.Now()
		fx = w.setup(opts.seed)
		setupS = append(setupS, time.Since(start).Seconds())
		genMS = append(genMS, fx.genTime.Seconds()*1e3)
		profMS = append(profMS, fx.profTime.Seconds()*1e3)
	}
	run := &simRun{
		cpus:     make([][]float64, w.episodes),
		allocs:   make([][]float64, w.episodes),
		retained: make([][]float64, w.episodes),
		fps:      make([]uint64, w.episodes),
	}
	gpus := w.loops * w.gpusPerLoop
	replayOne := func(ep int, tr *tracer, sink *spanSink) *replay {
		rep.attempted += len(fx.traces[ep])
		r, err := w.replayEpisode(fx, ep, tr, sink, false)
		if err != nil {
			rep.failed += len(fx.traces[ep])
			rep.fail("episode %d replay: %v", ep, err)
			return nil
		}
		return r
	}

	if opts.trace {
		return rep, runSimTraced(w, fx, run, opts, rep, replayOne, median(genMS), median(profMS))
	}
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for ep := 0; ep < w.episodes && (pass == 0 || time.Now().Before(deadline)); ep++ {
			r := replayOne(ep, nil, &spanSink{})
			if r == nil {
				return rep, nil
			}
			run.record(fx, ep, r, gpus, rep)
		}
	}
	checkInvariants(w, fx, run, opts.seed, rep)

	var cpu, alloc, retained float64
	for ep := range run.cpus {
		cpu += median(run.cpus[ep])
		alloc += median(run.allocs[ep])
		retained += median(run.retained[ep])
	}
	offered := float64(run.offered)
	m := rep.metrics
	m.set("setup_s", median(setupS))
	m.set("req_per_cpu_s", offered/cpu)
	m.set("slo_attainment", run.attainment())
	m.set("req_latency_mean_s", mean(run.stats.latency))
	m.set("req_latency_p99_s", median(run.latP99))
	m.set("gpu_s_per_req", run.stats.busy/offered)
	m.set("alloc_kb_per_req", alloc/offered/1024)
	m.set("retained_kb_per_req", retained/offered/1024)
	m.set("decision_p50_ms", quantile(run.planMS, 0.5))
	return rep, nil
}

// checkInvariants replays checkedEpisodes of the replayed episodes (chosen
// by the seed) with the invariant oracle attached; each must decide exactly
// as its timed replay did.
func checkInvariants(w simWorkload, fx *simFixture, run *simRun, seed uint64, rep *report) {
	replayed := 0 // episodes are replayed in order, so a prefix
	for replayed < w.episodes && len(run.cpus[replayed]) > 0 {
		replayed++
	}
	for i := 0; i < min(checkedEpisodes, replayed); i++ {
		ep := (int(seed%uint64(replayed)) + i*replayed/checkedEpisodes) % replayed
		r, err := w.replayEpisode(fx, ep, nil, &spanSink{}, true)
		if err != nil {
			rep.fail("episode %d invariant-checked replay: %v", ep, err)
			continue
		}
		if r.fp != run.fps[ep] {
			rep.fail("episode %d: the invariant-checked replay decided differently from the timed one", ep)
		}
	}
}

// runSimTraced replays the first tracedEpisodes episodes untraced and then
// traced (which must decide identically) and reduces the traced replays and
// their spans to per-layer metrics.
func runSimTraced(w simWorkload, fx *simFixture, run *simRun, opts options, rep *report,
	replayOne func(int, *tracer, *spanSink) *replay, genMS, profMS float64) error {
	tr := newTracer()
	heap := startHeapSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plainWall, tracedWall time.Duration
	var moves, lines, bytes int
	var rt router.Stats
	for ep := 0; ep < min(tracedEpisodes, w.episodes); ep++ {
		plain := replayOne(ep, nil, &spanSink{})
		sink := &spanSink{}
		traced := replayOne(ep, tr, sink)
		if plain == nil || traced == nil {
			heap.finish()
			return nil
		}
		run.record(fx, ep, traced, w.loops*w.gpusPerLoop, rep)
		if plain.fp != traced.fp {
			rep.fail("episode %d: the traced replay decided differently from the untraced one", ep)
		}
		plainWall += plain.wall
		tracedWall += traced.wall
		moves += traced.moves
		lines += sink.lines
		bytes += sink.bytes
		rt.Decisions += traced.router.Decisions
		rt.Infeasible += traced.router.Infeasible + traced.router.Shed
		rt.ProbeCacheHits += traced.router.ProbeCacheHits
		rt.ProbeCacheMisses += traced.router.ProbeCacheMisses
	}
	runtime.ReadMemStats(&ms1)
	peak := heap.finish()
	checkInvariants(w, fx, run, opts.seed, rep)

	m := rep.metrics
	spans := tr.snapshot()
	m.set("workload.generate_ms", genMS)
	m.set("costmodel.build_profile_ms", profMS)
	run.stats.layers(m)
	planShare := planLayers(m, spans, tracedWall)
	sinkShare := ratio(sum(durations(spans, "lifecycle.sink.Write")).Seconds(), tracedWall.Seconds())
	if w.loops > 1 {
		// With the probe cache off every decision probes every shard.
		m.set("router.probes_per_decision", float64(w.loops))
		m.set("router.reject_ratio", ratio(float64(rt.Infeasible), float64(rt.Decisions)))
		m.set("router.probe_cache_hit_ratio", ratio(float64(rt.ProbeCacheHits), float64(rt.ProbeCacheHits+rt.ProbeCacheMisses)))
	}
	m.set("rebalance.moves", float64(moves))
	m.set("lifecycle.sink_lines", float64(lines))
	m.set("lifecycle.sink_kb", float64(bytes)/1024)
	m.set("lifecycle.sink_share", sinkShare)
	m.set("sim.residual_share", 1-planShare-sinkShare)
	m.set("trace.overhead_share", ratio(tracedWall.Seconds(), plainWall.Seconds())-1)
	cycles, pause := gcDelta(&ms0, &ms1)
	m.set("go.gc_cycles", cycles)
	m.set("go.gc_pause_ms", pause)
	m.set("go.heap_peak_mb", peak)
	return tr.write(opts.spansOut)
}
