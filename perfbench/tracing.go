package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/server"
	"tetriserve/internal/workload"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; Parent is the ID of the enclosing span (-1 for a root)
// and Req identifies the request the span served, when there is one.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
	// Depth is the planner's pending-queue length for core.Plan spans.
	Depth int `json:"depth,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them as JSONL once the run ends.
// Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, req string) int {
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endDepth(id, 0) }

// endDepth closes span id and records the queue depth it saw.
func (t *tracer) endDepth(id, depth int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.spans[id].Depth = depth
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON line into path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span log: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	return f.Close()
}

// durations returns the durations of the spans named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// microseconds converts durations to float microseconds.
func microseconds(ds []time.Duration) []float64 { return scale(seconds(ds), 1e6) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// timedScheduler records a core.Plan span around every planning call.
// Embedding the concrete scheduler forwards every other method — in
// particular Overhead, EagerAdmission and MaxCacheInterval, which the
// control loop and the feasibility probe discover by type assertion. A
// wrapper hiding them would turn off the round overhead, eager admission
// and the cached admission tier, and the traced run would measure a
// different program.
type timedScheduler struct {
	*core.Scheduler
	tr     *tracer
	parent int
}

func (s *timedScheduler) Plan(ctx *sched.PlanContext) []sched.Assignment {
	id := s.tr.begin("core.Plan", s.parent, "")
	plan := s.Scheduler.Plan(ctx)
	s.tr.endDepth(id, len(ctx.Pending))
	return plan
}

// Compile-time checks that the wrapper keeps the optional methods.
var (
	_ interface{ Overhead() time.Duration } = (*timedScheduler)(nil)
	_ interface{ EagerAdmission() bool }    = (*timedScheduler)(nil)
	_ interface{ MaxCacheInterval() int }   = (*timedScheduler)(nil)
)

// spanSink is the sim-fleet lifecycle SpanSink: it counts lines and bytes
// and discards them. With a tracer it records a lifecycle.sink.Write span
// per call.
type spanSink struct {
	lines, bytes int
	tr           *tracer
	parent       int
}

func (w *spanSink) Write(p []byte) (int, error) {
	if w.tr != nil {
		defer w.tr.end(w.tr.begin("lifecycle.sink.Write", w.parent, ""))
	}
	w.lines += bytes.Count(p, []byte{'\n'})
	w.bytes += len(p)
	return len(p), nil
}

// goroutineID parses the current goroutine's ID from its stack header. The
// router calls shards synchronously on the handler's goroutine without a
// context, so this is how a shard span finds its handler span.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// handlerSpans maps handler goroutines to their open server.handler span.
type handlerSpans struct {
	mu   sync.Mutex
	open map[uint64]int
}

func (h *handlerSpans) enter(id int) uint64 {
	g := goroutineID()
	h.mu.Lock()
	h.open[g] = id
	h.mu.Unlock()
	return g
}

func (h *handlerSpans) leave(g uint64) {
	h.mu.Lock()
	delete(h.open, g)
	h.mu.Unlock()
}

func (h *handlerSpans) current() int {
	g := goroutineID()
	h.mu.Lock()
	defer h.mu.Unlock()
	if id, ok := h.open[g]; ok {
		return id
	}
	return -1
}

// timedShard wraps a LocalShard with router.probe and server.submit spans.
// It forwards every optional extension the router API discovers by type
// assertion (traced submission, stats, timelines, resize), so the router
// behaves exactly as over the bare shard.
type timedShard struct {
	*server.LocalShard
	tr *tracer
	hs *handlerSpans
}

func (s *timedShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	defer s.tr.end(s.tr.begin("router.probe", s.hs.current(), ""))
	return s.LocalShard.ProbeFeasibility(res, steps, slo)
}

func (s *timedShard) SubmitTraced(prompt workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (server.Job, error) {
	defer s.tr.end(s.tr.begin("server.submit", s.hs.current(), traceID))
	return s.LocalShard.SubmitTraced(prompt, res, slo, traceID, tenant)
}

var (
	_ server.RouterShard     = (*timedShard)(nil)
	_ server.TracedSubmitter = (*timedShard)(nil)
	_ server.StatsFetcher    = (*timedShard)(nil)
	_ server.TimelineFetcher = (*timedShard)(nil)
	_ server.ResizableShard  = (*timedShard)(nil)
)

// heapSampler polls the live heap size until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// gcDelta reports GC cycles and pause time between two MemStats readings.
func gcDelta(before, after *runtime.MemStats) (cycles float64, pauseMS float64) {
	return float64(after.NumGC - before.NumGC), float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}
