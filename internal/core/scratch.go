package core

// This file holds the scheduler's reusable per-round scratch state. Plan is
// the control-plane hot path (the <10 ms claim of Appendix B); re-allocating
// candidates, DP rows and placement buffers every round made the Go
// allocator, not the algorithm, the dominant cost at deep queues. All
// buffers below are owned by one Scheduler and reused across Plan calls,
// which is safe because Plan is never invoked concurrently on one scheduler
// (both the simulator and the live server drive a scheduler from a single
// goroutine; the parallel experiment harness constructs one scheduler per
// worker).

import (
	"slices"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/workload"
)

// mixKey identifies one deadline-aware allocation subproblem. By default the
// budget is the exact remaining time to deadline: quantizing the key alone
// would let two requests with different deadlines share a (possibly wrong)
// plan and change round decisions, so the memo trades hit rate for
// bit-for-bit reproducibility. Config.DeadlineBucket quantizes the budget
// *before* it reaches the solver — the rounded-down value is both the key
// and the solve input, so the plan stays self-consistent (and conservative)
// while near-identical deadlines collapse onto one entry. Requests of the
// same resolution arriving together (the common burst shape, and the planner
// benchmark's queue) collapse onto a handful of keys either way.
type mixKey struct {
	res    model.Resolution
	steps  int
	budget time.Duration
}

// planScratch is the arena reused across Plan calls.
type planScratch struct {
	// Stage 0: request partition.
	active []*sched.RequestState
	late   []*sched.RequestState

	// Stage 1: candidate construction.
	candArena []candidate
	cands     []*candidate

	// minGPUHourMix working set, memo and result slab. The memo serves one
	// Plan call: deadline budgets shift every round, so cross-round keys
	// almost never repeat, and clearing per plan (clear() keeps the map's
	// buckets) bounds both the map and the slab the memoized slices alias.
	mixMemo     map[mixKey][]mixEntry
	mixArena    []mixEntry
	memoProf    *costmodel.Profile
	memoVersion uint64
	// tmins memoizes Profile.MinStepTime per resolution — the lookup is a
	// degree-loop of map probes and the planner needs it twice per pending
	// request per round (late partition + candidate survival bounds). A
	// profile holds a handful of resolutions, so a linear scan of this slice
	// beats hashing the key. Tied to the memo epoch: reset only when the
	// profile identity/version moves.
	tmins []resTmin
	// cfgCache memoizes buildDegCfgs per resolution on the same epoch: the
	// table depends only on (profile, resolution, window, quantization
	// flag), and rebuilding it was most of every solveMix call.
	cfgCache map[model.Resolution][]degCfg

	// Stage 2: DP state. rows is the full (R+1)×cols value table — row i is
	// the optimum over the first i candidates, kept (rather than the usual
	// rolling pair) so a later round can resume from the deepest row whose
	// candidate prefix is unchanged. choice is the flattened back-pointer
	// table, len(cands)×cols. prof fingerprints each DP row's transition
	// (see dpProfile); prevProf is last round's sequence, the warm-start
	// comparison baseline.
	rows     []int64
	choice   []int16
	sels     []selection
	dpCands  []*candidate
	prof     []uint64
	prevProf []uint64
	dpCols   int
	dpValid  int // candidate rows of `rows` that match prevProf

	// Workers>1 parallel candidate construction (see parallel.go).
	par parScratch

	// Stage 3: assembly. placed is the arena all *placed pointers index
	// into; lane holds the late requests the best-effort lane serves;
	// memberArena backs the per-host continuous-batching member slices;
	// ids backs the emitted Assignment.Requests slices.
	ordered     []selection
	placed      []placed
	placedPtr   []*placed
	lane        []*sched.RequestState
	lateArena   []candidate
	unplaced    []*candidate
	batchable   []*placed
	memberArena []*candidate
	ids         []workload.RequestID
	plan        []sched.Assignment
}

// resTmin is one resolution's cached Profile.MinStepTime.
type resTmin struct {
	res  model.Resolution
	tmin time.Duration
}

// degCfg is one profiled degree's effective cost inside minGPUHourMix.
type degCfg struct {
	k int
	t time.Duration
	g float64 // GPU-seconds per step
}

// beginPlan resets the per-round buffers and memo for a fresh solve.
func (s *Scheduler) beginPlan(prof *costmodel.Profile) {
	sc := &s.scratch
	sc.active = sc.active[:0]
	sc.late = sc.late[:0]
	sc.cands = sc.cands[:0]
	s.ensureMemo(prof)
	clear(sc.mixMemo)
	sc.mixArena = sc.mixArena[:0]
}

// ensureMemo (re)initializes the allocation memo when it does not exist yet
// or the profile identity or version changed (on-demand profiling extends
// tables in place and bumps Version).
func (s *Scheduler) ensureMemo(prof *costmodel.Profile) {
	sc := &s.scratch
	if sc.mixMemo == nil || sc.memoProf != prof || sc.memoVersion != prof.Version() {
		sc.mixMemo = make(map[mixKey][]mixEntry)
		sc.tmins = sc.tmins[:0]
		sc.cfgCache = make(map[model.Resolution][]degCfg)
		sc.memoProf = prof
		sc.memoVersion = prof.Version()
	}
}

// minStep is the cached Profile.MinStepTime (value identical by
// construction, so planning decisions cannot shift). The parallel candidate
// pass reads the cache concurrently; that is safe because Plan's sequential
// partition stage has already interned every pending resolution.
func (s *Scheduler) minStep(prof *costmodel.Profile, res model.Resolution) time.Duration {
	sc := &s.scratch
	for i := range sc.tmins {
		if sc.tmins[i].res == res {
			return sc.tmins[i].tmin
		}
	}
	t, _ := prof.MinStepTime(res)
	sc.tmins = append(sc.tmins, resTmin{res: res, tmin: t})
	return t
}

// degCfgs is the cached buildDegCfgs. The parallel candidate pass reads the
// cache concurrently; that is safe because pass 1 (sequential) interns every
// active resolution before any worker starts.
func (s *Scheduler) degCfgs(prof *costmodel.Profile, res model.Resolution) []degCfg {
	sc := &s.scratch
	if c, ok := sc.cfgCache[res]; ok {
		return c
	}
	c := s.buildDegCfgs(prof, res)
	sc.cfgCache[res] = c
	return c
}

// definitelyLate mirrors sched.RequestState.DefinitelyLate through the
// tmin cache. With step caching enabled, a request is only definitely late
// if it misses its deadline even after spending its whole remaining quality
// budget at the maximum cache interval — the cache dimension turns some
// would-be drops back into packable candidates.
func (s *Scheduler) definitelyLate(prof *costmodel.Profile, st *sched.RequestState, now time.Duration) bool {
	tmin := s.minStep(prof, st.Req.Res)
	if now+time.Duration(st.Remaining)*tmin <= st.Deadline() {
		return false
	}
	// With caching off the rescue projection below is the plain bound just
	// failed plus a non-negative margin, so it cannot pass either.
	if s.cfg.MaxCacheInterval <= 1 {
		return true
	}
	// Same projection (and margin) as the rescue gate in addCachedOptions: a
	// request is only kept alive for the cache dimension when a rescue could
	// actually be planned for it — relief without a plannable rescue would
	// let doomed requests linger in the active set and displace on-time work.
	total := st.Req.Steps - st.Req.SkippedSteps
	done := total - st.Remaining
	budgetLeft := st.Req.QualityBudget - st.QualityUsed
	return !s.cacheFeasibleAt(prof, st, tmin, now, st.Remaining, done, budgetLeft)
}

// putMix1 / putMix2 materialize a mix into the per-plan slab, returning a
// clipped sub-slice so later appends cannot overwrite it. The slab may grow
// (re-point) mid-plan; previously returned slices keep aliasing the old
// backing array, which stays valid for the rest of the plan.
func (sc *planScratch) putMix1(a mixEntry) []mixEntry {
	start := len(sc.mixArena)
	sc.mixArena = append(sc.mixArena, a)
	return sc.mixArena[start:len(sc.mixArena):len(sc.mixArena)]
}

func (sc *planScratch) putMix2(a, b mixEntry) []mixEntry {
	start := len(sc.mixArena)
	sc.mixArena = append(sc.mixArena, a, b)
	return sc.mixArena[start:len(sc.mixArena):len(sc.mixArena)]
}

// grabCandidates returns n candidate slots with stable addresses; callers
// overwrite each slot they use. Growth is amortized like append's.
func (sc *planScratch) grabCandidates(n int) []candidate {
	sc.candArena = slices.Grow(sc.candArena[:0], n)[:n]
	return sc.candArena
}
