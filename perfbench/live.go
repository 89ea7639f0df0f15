package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/server"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// Live workload constants. Two 8×H100 shards serve ≈2×41 uniform FLUX
// requests per virtual minute; liveSpeedup maps that onto liveRate wall
// requests per second, so the fixed-rate phase offers the fleet's capacity
// and the router both admits and rejects.
const (
	liveShards  = 2
	liveRate    = 100.0
	liveSpeedup = liveRate * 60 / (liveShards * loopCapacityPerMin)
	// liveDropLate expires admitted jobs that run this many SLOs late, so
	// every accepted job reaches a terminal state soon after the load stops.
	liveDropLate = 4.0
	// One in readEvery generate requests is sampled: once accepted, its
	// timeline is read readDelay after the 202. GET /v1/fleet is read every
	// fleetReadEvery.
	readEvery      = 10
	readDelay      = 20 * time.Millisecond
	fleetReadEvery = 100 * time.Millisecond
	// warmup runs before the measured phase and is not counted.
	warmup = 500 * time.Millisecond
	// phaseShare is the share of --seconds the fixed-rate phase lasts; the
	// capacity measurement takes most of the rest.
	phaseShare = 0.55
	// saturatePerSecond is how many back-to-back requests the capacity
	// measurement sends per second of --seconds.
	saturatePerSecond = 4500
	// spinBelow is how close to a due time the generator stops sleeping and
	// yields instead: a sleep wakes up to a millisecond late.
	spinBelow = time.Millisecond
	// chunks splits the capacity measurement; the median chunk is reported,
	// so one stall of the shared host does not decide a run's figure. Half
	// the chunks run before the fixed-rate phase and half after it, so the
	// figure samples the host's speed across the whole run. The chunks
	// replay chunkSchedules distinct seeded schedules in turn.
	chunks         = 24
	chunkSchedules = 4
	// liveSLOScale is the routed experiments' SLO policy.
	liveSLOScale = 1.0
	// drainTimeout bounds the wait for admitted jobs to finish.
	drainTimeout = 30 * time.Second
	// requestTimeout bounds one HTTP operation.
	requestTimeout = 10 * time.Second
	traceHeader    = "X-Perfbench-Span"
)

// checkClient serves the readiness probe and the correctness checks. It
// keeps no connection open, so the load generator's connections are the
// only ones during a measurement.
var checkClient = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{DisableKeepAlives: true}}

// liveFleet is a router over in-process shard drivers, served on loopback.
type liveFleet struct {
	// profTime is how long the shards' profile builds took.
	profTime time.Duration
	drivers  []*server.Driver
	api      *server.RouterAPI
	srv      *http.Server
	served   chan struct{}
	base     string
}

// startFleet builds the drivers, the router API and the listener, and
// returns once /healthz answers. With a tracer the scheduler, the shards
// and the handler are wrapped to record spans.
func startFleet(tr *tracer, hs *handlerSpans) (*liveFleet, error) {
	mdl := model.FLUX()
	f := &liveFleet{served: make(chan struct{})}
	shards := make([]server.RouterShard, liveShards)
	for i := range shards {
		topo := simgpu.H100x8()
		start := time.Now()
		prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
		f.profTime += time.Since(start)
		s := core.NewScheduler(prof, topo, core.DefaultConfig())
		cfg := server.DriverConfig{
			Model:          mdl,
			Topo:           topo,
			Scheduler:      s,
			Speedup:        liveSpeedup,
			DropLateFactor: liveDropLate,
			ShardName:      fmt.Sprintf("shard%d", i),
		}
		if tr != nil {
			cfg.Scheduler = &timedScheduler{Scheduler: s, tr: tr, parent: -1}
		}
		d, err := server.NewDriver(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		d.Start()
		f.drivers = append(f.drivers, d)
		ls := &server.LocalShard{ShardName: cfg.ShardName, Driver: d}
		if tr != nil {
			shards[i] = &timedShard{LocalShard: ls, tr: tr, hs: hs}
		} else {
			shards[i] = ls
		}
	}
	api, err := server.NewRouterAPI(router.Config{}, shards)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.api = api
	var h http.Handler = api.Handler()
	if tr != nil {
		h = tracedHandler{next: h, tr: tr, hs: hs}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: h}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	resp, err := checkClient.Get(f.base + "/healthz")
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("readiness probe: %w", err)
	}
	resp.Body.Close()
	return f, nil
}

// stop shuts the listener and every driver down and waits for them.
func (f *liveFleet) stop() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.srv.Shutdown(ctx) // a timeout leaves only idle connections behind
		cancel()
		<-f.served
	}
	for _, d := range f.drivers {
		d.Stop()
	}
}

// driver returns the driver behind the named shard.
func (f *liveFleet) driver(shard string) *server.Driver {
	for i, d := range f.drivers {
		if fmt.Sprintf("shard%d", i) == shard {
			return d
		}
	}
	return nil
}

// tracedHandler records a server.handler span per request, parented to the
// client span named in traceHeader, and registers it so shard spans on the
// same goroutine find it.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	hs   *handlerSpans
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := -1
	if v, err := strconv.Atoi(r.Header.Get(traceHeader)); err == nil {
		parent = v
	}
	name := "server.handler.read"
	if r.Method == http.MethodPost {
		name = "server.handler.generate"
	}
	id := h.tr.begin(name, parent, "")
	g := h.hs.enter(id)
	defer func() {
		h.hs.leave(g)
		h.tr.end(id)
	}()
	h.next.ServeHTTP(w, r)
}

// opKind classifies load-generator operations.
type opKind int

const (
	opGenerate opKind = iota
	opTimeline
	opFleet
)

// op is one scheduled HTTP operation and, once done, its record.
type op struct {
	kind   opKind
	due    time.Duration // scheduled send time, from the phase start
	body   []byte        // POST payload
	sample bool          // read the timeline once accepted
	trace  string        // timeline to read (opTimeline)
	warm   bool          // part of the warm-up, not measured

	sent, done time.Duration
	status     int
	err        error
	shard      string
	job        workload.RequestID
}

// latency is the time from the scheduled send to the answer.
func (o *op) latency() time.Duration { return o.done - o.due }

// opQueue orders pending operations by due time.
type opQueue []*op

func (q opQueue) Len() int           { return len(q) }
func (q opQueue) Less(i, j int) bool { return q[i].due < q[j].due }
func (q opQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *opQueue) Push(x any)        { *q = append(*q, x.(*op)) }
func (q *opQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// genRequests makes n generate operations arriving as a Poisson process at
// rate per second, with a uniform FLUX mix and the default SLO policy.
func genRequests(seed uint64, rate float64, n int) []*op {
	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       model.FLUX(),
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: rate * 60},
		SLO:         workload.NewSLOPolicy(liveSLOScale),
		NumRequests: n,
		Seed:        seed,
	})
	ops := make([]*op, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(server.RoutedGenerateRequest{
			Prompt:    r.Prompt.Text,
			Width:     r.Res.W,
			Height:    r.Res.H,
			SLOMillis: r.SLO.Milliseconds(),
		})
		if err != nil {
			panic(err) // plain struct
		}
		ops[i] = &op{kind: opGenerate, due: r.Arrival, body: body, sample: i%readEvery == 0}
	}
	return ops
}

// genSchedule makes a fixed-rate schedule lasting d: generate requests plus
// a /v1/fleet read every fleetReadEvery.
func genSchedule(seed uint64, rate float64, d time.Duration) []*op {
	ops := genRequests(seed, rate, int(rate*d.Seconds()))
	for at := fleetReadEvery; at < d; at += fleetReadEvery {
		ops = append(ops, &op{kind: opFleet, due: at})
	}
	return ops
}

// liveInputs are a run's generated schedules: the warm-up, the fixed-rate
// phase lasting d, and the capacity measurement's distinct back-to-back
// chunk schedules, sized so that its chunks send n requests in all.
type liveInputs struct {
	warm, phase []*op
	chunks      [][]*op
}

func genInputs(seed uint64, d time.Duration, n int) *liveInputs {
	in := &liveInputs{
		warm:  genSchedule(seed+7919, liveRate, warmup),
		phase: genSchedule(seed, liveRate, d),
	}
	for _, o := range in.warm {
		o.warm = true
	}
	for c := 0; c < chunkSchedules; c++ {
		ops := genRequests(seed+uint64(c+1)*104729, liveRate, n/chunks)
		for _, o := range ops {
			o.due = 0
		}
		in.chunks = append(in.chunks, ops)
	}
	return in
}

// fresh copies a schedule for one replay: the generator fills the records
// in, and a schedule can be replayed more than once.
func fresh(ops []*op) []*op {
	out := make([]*op, len(ops))
	for i, o := range ops {
		c := *o
		out[i] = &c
	}
	return out
}

// loadGen replays a schedule against a fleet over conns keep-alive
// connections, one per worker.
type loadGen struct {
	base  string
	tr    *tracer
	conns int

	mu      sync.Mutex
	queue   opQueue
	active  int // operations popped and not yet finished
	wake    *sync.Cond
	start   time.Time
	records []*op
}

// newLoadGen targets a fleet with one connection per CPU.
func newLoadGen(f *liveFleet, tr *tracer) *loadGen {
	return &loadGen{base: f.base, tr: tr, conns: runtime.NumCPU()}
}

// run replays ops and returns every operation's record, timeline reads
// included, once all have finished.
func (g *loadGen) run(ops []*op) []*op {
	g.wake = sync.NewCond(&g.mu)
	g.queue = append(opQueue(nil), ops...)
	heap.Init(&g.queue)
	g.start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g.conns; i++ {
		client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for o := g.next(); o != nil; o = g.next() {
				g.waitUntil(o.due)
				g.do(client, o)
				g.finish(o)
			}
		}()
	}
	wg.Wait()
	return g.records
}

// waitUntil returns at due (from the schedule's start): it sleeps while due
// is far and yields the processor for the last spinBelow.
func (g *loadGen) waitUntil(due time.Duration) {
	for {
		wait := due - time.Since(g.start)
		switch {
		case wait <= 0:
			return
		case wait > spinBelow:
			time.Sleep(wait - spinBelow)
		default:
			runtime.Gosched()
		}
	}
}

// next pops the earliest operation, waiting while others are in flight
// (they may enqueue timeline reads); nil means the schedule is done.
func (g *loadGen) next() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.queue) == 0 && g.active > 0 {
		g.wake.Wait()
	}
	if len(g.queue) == 0 {
		return nil
	}
	g.active++
	return heap.Pop(&g.queue).(*op)
}

func (g *loadGen) finish(o *op) {
	g.mu.Lock()
	g.records = append(g.records, o)
	if o.kind == opGenerate && o.sample && o.status == http.StatusAccepted {
		heap.Push(&g.queue, &op{kind: opTimeline, due: o.done + readDelay, trace: o.trace, warm: o.warm})
	}
	g.active--
	g.mu.Unlock()
	g.wake.Broadcast()
}

// do sends one operation and fills in its record.
func (g *loadGen) do(client *http.Client, o *op) {
	var req *http.Request
	var err error
	switch o.kind {
	case opGenerate:
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/generate", bytes.NewReader(o.body))
	case opTimeline:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/requests/"+o.trace, nil)
	default:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/fleet", nil)
	}
	if err != nil {
		o.err = err
		return
	}
	if g.tr != nil {
		name := "client.read"
		if o.kind == opGenerate {
			name = "client.generate"
		}
		id := g.tr.begin(name, -1, o.trace)
		req.Header.Set(traceHeader, strconv.Itoa(id))
		defer g.tr.end(id)
	}
	o.sent = time.Since(g.start)
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		o.done = time.Since(g.start)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(g.start)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	switch {
	case o.kind == opGenerate && o.status == http.StatusAccepted:
		var job server.RoutedJob
		if err := json.Unmarshal(body, &job); err != nil || job.TraceID == "" || job.Shard == "" {
			o.err = fmt.Errorf("malformed 202 body %q", body)
			return
		}
		o.trace, o.shard, o.job = job.TraceID, job.Shard, job.ID
	case o.kind == opGenerate && o.status == http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			o.err = errors.New("429 without Retry-After")
		}
	}
}

// failedOp reports whether an operation failed: a transport error, a
// malformed answer or a 5xx. A 429 is an answer, not a failure, and so is a
// timeline read that raced the job's admission (re-checked at the end).
func failedOp(o *op) bool { return o.err != nil || o.status >= 500 }

// livePhase is one measured fixed-rate replay's outcome.
type livePhase struct {
	ops                   []*op
	alloc, retained, busy float64
	wall                  time.Duration
	goroutines            int
	jobs                  []server.Job
	// firstSpan is the first span the measured schedule recorded (traced).
	firstSpan int
}

// runPhase warms a fleet up, then replays the measured schedule, drains
// every admitted job and checks the answers.
func runPhase(f *liveFleet, tr *tracer, in *liveInputs, rep *report) (*livePhase, error) {
	warmOps := newLoadGen(f, tr).run(fresh(in.warm))
	count(rep, warmOps)
	if _, err := drain(f, warmOps); err != nil {
		return nil, err
	}
	ops := fresh(in.phase)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	busy0 := fleetBusy(f)
	ph := &livePhase{}
	if tr != nil {
		ph.firstSpan = len(tr.snapshot())
	}
	start := time.Now()
	ph.ops = newLoadGen(f, tr).run(ops)
	ph.wall = time.Since(start)
	jobs, err := drain(f, ph.ops)
	if err != nil {
		return nil, err
	}
	ph.jobs = jobs
	ph.busy = fleetBusy(f) - busy0
	ph.goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&after)
	ph.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
	checkLive(f, ph, rep)
	return ph, nil
}

func fleetBusy(f *liveFleet) float64 {
	t := 0.0
	for _, d := range f.drivers {
		t += d.Snapshot().GPUBusyS
	}
	return t
}

// drain waits until every accepted job is completed or dropped and returns
// their final records (in operation order).
func drain(f *liveFleet, ops []*op) ([]server.Job, error) {
	deadline := time.Now().Add(drainTimeout)
	var jobs []server.Job
	for _, o := range ops {
		if o.kind != opGenerate || o.status != http.StatusAccepted {
			continue
		}
		d := f.driver(o.shard)
		if d == nil {
			return nil, fmt.Errorf("202 names unknown shard %q", o.shard)
		}
		for {
			j, ok := d.JobStatus(o.job)
			if !ok {
				return nil, fmt.Errorf("accepted job %d unknown to %s", o.job, o.shard)
			}
			if j.State == server.JobCompleted || j.State == server.JobDropped {
				jobs = append(jobs, j)
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %d on %s still %s after %s", o.job, o.shard, j.State, drainTimeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return jobs, nil
}

// checkLive verifies the answers: every sampled accepted request's trace
// resolves at /v1/requests/{id} (now, after the drain), and each answer
// carried the trace it was asked for.
func checkLive(f *liveFleet, ph *livePhase, rep *report) {
	for _, o := range ph.ops {
		if o.kind != opGenerate || !o.sample || o.status != http.StatusAccepted {
			continue
		}
		resp, err := checkClient.Get(f.base + "/v1/requests/" + o.trace)
		if err != nil {
			rep.fail("timeline %s: %v", o.trace, err)
			continue
		}
		var tl struct {
			TraceID string `json:"trace_id"`
			Done    bool   `json:"done"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tl)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || tl.TraceID != o.trace || !tl.Done {
			rep.fail("timeline %s: status %d, trace %q, done %v, err %v", o.trace, resp.StatusCode, tl.TraceID, tl.Done, err)
		}
	}
}

// runLive runs the live-fleet workload: set-up (schedule generation and a
// fleet started) repeated setupReps times, then a fixed-rate phase for
// phaseShare of the window. An untraced run measures the capacity in two
// blocks, one before that phase and one after it; a traced run replays the
// same fixed-rate phase on a traced fleet instead.
func runLive(opts options) (*report, error) {
	rep := &report{metrics: metricSet{}}
	window := time.Duration(opts.seconds * float64(time.Second))
	var setupS, genMS, profMS []float64
	var fleet *liveFleet
	var in *liveInputs
	for i := 0; i < setupReps; i++ {
		if fleet != nil {
			fleet.stop()
		}
		fleet, in = nil, nil
		runtime.GC() // as for the simulator set-ups
		start := time.Now()
		in = genInputs(opts.seed, time.Duration(phaseShare*float64(window)), int(saturatePerSecond*opts.seconds))
		gen := time.Since(start)
		f, err := startFleet(nil, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		genMS = append(genMS, gen.Seconds()*1e3)
		profMS = append(profMS, f.profTime.Seconds()*1e3)
		fleet = f
	}
	var rates []float64
	if !opts.trace {
		r, err := saturate(in, 0, chunks/2, rep)
		if err != nil {
			fleet.stop()
			return nil, err
		}
		rates = r
	}
	ph, err := runPhase(fleet, nil, in, rep)
	fleet.stop()
	if err != nil {
		return nil, err
	}
	count(rep, ph.ops)
	if !opts.trace {
		r, err := saturate(in, chunks/2, chunks, rep)
		if err != nil {
			return nil, err
		}
		liveEndToEnd(rep.metrics, median(setupS), median(append(rates, r...)), ph)
		return rep, nil
	}

	tr := newTracer()
	hs := &handlerSpans{open: map[uint64]int{}}
	heapS := startHeapSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tf, err := startFleet(tr, hs)
	if err != nil {
		heapS.finish()
		return nil, err
	}
	tph, err := runPhase(tf, tr, in, rep)
	stats := tf.api.Router().Stats()
	var results []*control.Result
	for _, d := range tf.drivers {
		results = append(results, d.Result())
	}
	tf.stop()
	runtime.ReadMemStats(&ms1)
	peak := heapS.finish()
	if err != nil {
		return nil, err
	}
	count(rep, tph.ops)
	liveLayers(rep.metrics, ph, tph, stats, results, tr.snapshot())
	rep.metrics.set("workload.generate_ms", median(genMS))
	rep.metrics.set("costmodel.build_profile_ms", median(profMS))
	cycles, pause := gcDelta(&ms0, &ms1)
	rep.metrics.set("go.gc_cycles", cycles)
	rep.metrics.set("go.gc_pause_ms", pause)
	rep.metrics.set("go.heap_peak_mb", peak)
	if err := tr.write(opts.spansOut); err != nil {
		return nil, err
	}
	return rep, nil
}

// count adds a phase's operations to the report's totals.
func count(rep *report, ops []*op) {
	for _, o := range ops {
		rep.attempted++
		if failedOp(o) {
			rep.failed++
			rep.fail("operation %d (due %s): status %d, %v", o.kind, o.due, o.status, o.err)
		}
	}
}

// measured returns the measured generate operations and their admission
// latencies and lateness, in milliseconds.
func measured(ops []*op) (gens []*op, admitMS, lateMS []float64) {
	for _, o := range ops {
		if o.kind == opGenerate && !o.warm {
			gens = append(gens, o)
			admitMS = append(admitMS, o.latency().Seconds()*1e3)
			lateMS = append(lateMS, (o.sent-o.due).Seconds()*1e3)
		}
	}
	return gens, admitMS, lateMS
}

// saturate measures the admission path's cost at saturation on a fleet of
// its own, for chunks [from, to): each chunk's requests are sent back to
// back over the generator's connections (each sends its next request as
// soon as the previous one is answered). It returns each chunk's requests
// answered per process CPU second (router, drivers and client together).
// Every chunk starts from a collected heap, so the previous chunk's garbage
// does not decide when its collections run.
func saturate(in *liveInputs, from, to int, rep *report) ([]float64, error) {
	f, err := startFleet(nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	count(rep, newLoadGen(f, nil).run(fresh(in.warm)))
	var rates []float64
	for c := from; c < to; c++ {
		ops := fresh(in.chunks[c%len(in.chunks)])
		runtime.GC()
		cpu0 := cpuTime()
		ops = newLoadGen(f, nil).run(ops)
		rates = append(rates, float64(len(ops))/(cpuTime()-cpu0).Seconds())
		count(rep, ops)
	}
	fmt.Fprintf(os.Stderr, "perfbench: live capacity chunks %d-%d: %.0f requests per CPU second\n", from, to-1, rates)
	return rates, nil
}

// liveAttainment is the paper's SLO attainment over the offered load, from
// the benchmark's own records (never the shards' /v1/stats sar, which
// leaves drops out): accepted jobs that met their deadline ÷ generate
// requests sent. 429s, failed requests and dropped jobs are misses.
func liveAttainment(gens []*op, jobs []server.Job) float64 {
	met := 0
	for _, j := range jobs {
		if j.MetSLO && j.State == server.JobCompleted {
			met++
		}
	}
	return ratio(float64(met), float64(len(gens)))
}

// liveEndToEnd reduces the fixed-rate phase to the end-to-end metrics.
// Offered requests are the measured generate operations; 429s and drops
// count as misses.
func liveEndToEnd(m metricSet, setup, perCPU float64, ph *livePhase) {
	gens, admit, late := measured(ph.ops)
	offered := float64(len(gens))
	var lat []float64
	for _, j := range ph.jobs {
		if j.State == server.JobCompleted {
			lat = append(lat, j.Latency.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: live fixed rate %.0f/s: sent %d, admission p99 %.2f ms, generator lateness p50 %.2f ms, p99 %.2f ms\n",
		liveRate, len(gens), quantile(slices.Clone(admit), 0.99), quantile(late, 0.5), quantile(late, 0.99))
	m.set("setup_s", setup)
	m.set("req_per_cpu_s", perCPU)
	m.set("slo_attainment", liveAttainment(gens, ph.jobs))
	m.set("req_latency_mean_s", mean(lat))
	m.set("req_latency_p99_s", quantile(lat, 0.99))
	m.set("gpu_s_per_req", ph.busy/offered)
	m.set("alloc_kb_per_req", ph.alloc/offered/1024)
	m.set("retained_kb_per_req", ph.retained/float64(len(ph.jobs))/1024)
	m.set("decision_p50_ms", quantile(admit, 0.5))
}

// liveLayers reduces the traced fixed-rate phase (tph) and its spans to
// per-layer metrics; ph is the untraced phase on the same schedule, for the
// tracing overhead. Loop counts and router ratios cover the traced fleet's
// whole life (warm-up included); latencies only the measured schedule.
func liveLayers(m metricSet, ph, tph *livePhase, rt router.Stats, results []*control.Result, all []span) {
	spans := all[tph.firstSpan:]
	byID := map[int]span{}
	children := map[int]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "router.probe" || s.Name == "server.submit" {
			children[s.Parent] += s.dur()
		}
	}
	var handler, self, transport []float64
	for _, s := range spans {
		if s.Name != "server.handler.generate" {
			continue
		}
		handler = append(handler, s.dur().Seconds()*1e6)
		self = append(self, (s.dur()-children[s.ID]).Seconds()*1e6)
		if c, ok := byID[s.Parent]; ok {
			transport = append(transport, (c.dur()-s.dur()).Seconds()*1e6)
		}
	}
	probes := 0
	for _, s := range all {
		if s.Name == "router.probe" {
			probes++
		}
	}
	var reads []float64
	for _, o := range tph.ops {
		if o.kind != opGenerate && !o.warm {
			reads = append(reads, o.latency().Seconds()*1e3)
		}
	}
	_, admit, late := measured(tph.ops)
	_, plainAdmit, _ := measured(ph.ops)

	var loops loopStats
	loops.add(results, liveShards*8)
	loops.layers(m)
	planLayers(m, spans, tph.wall)
	m.set("router.probes_per_decision", ratio(float64(probes), float64(rt.Decisions)))
	m.set("router.reject_ratio", rt.EarlyRejectRate)
	m.set("router.probe_cache_hit_ratio", ratio(float64(rt.ProbeCacheHits), float64(rt.ProbeCacheHits+rt.ProbeCacheMisses)))
	m.set("router.shard_probe_us_p50", quantile(microseconds(durations(spans, "router.probe")), 0.5))
	m.set("router.shard_probe_us_p99", quantile(microseconds(durations(spans, "router.probe")), 0.99))
	m.set("router.self_us_p50", quantile(self, 0.5))
	m.set("server.handler_us_p50", quantile(handler, 0.5))
	m.set("server.handler_us_p99", quantile(handler, 0.99))
	m.set("server.transport_us_p50", quantile(transport, 0.5))
	m.set("server.submit_us_p50", quantile(microseconds(durations(spans, "server.submit")), 0.5))
	m.set("server.submit_us_p99", quantile(microseconds(durations(spans, "server.submit")), 0.99))
	m.set("server.read_handler_us_p99", quantile(microseconds(durations(spans, "server.handler.read")), 0.99))
	m.set("server.read_p99_ms", quantile(reads, 0.99))
	m.set("server.goroutines_end", float64(tph.goroutines))
	m.set("loadgen.admit_p99_ms", quantile(admit, 0.99))
	m.set("loadgen.late_ms_p99", quantile(late, 0.99))
	m.set("loadgen.sent", float64(len(admit)))
	m.set("trace.overhead_share", ratio(quantile(admit, 0.5), quantile(plainAdmit, 0.5))-1)
}
