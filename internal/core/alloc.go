package core

import (
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
)

// option is one DP choice for a request this round: run q steps at the
// given degree, or (represented separately) run nothing.
type option struct {
	// degree is the sequence-parallel degree A_i^m (also the knapsack
	// width w_i).
	degree int
	// planSteps is s_i^m — how many of the request's remaining steps the
	// minimal-GPU-hour plan assigns to this degree.
	planSteps int
	// stepTime is the profiled T_i(A_i^m).
	stepTime time.Duration
	// q is how many steps fit in this round's window (q_i^m, clipped).
	q int
	// survive is sv_i(m): not definitely late at the next round start if
	// this option runs.
	survive bool
	// cacheInterval > 1 marks a step-cache-assisted option: stepTime and q
	// are computed at the discounted T(res, k, cacheInterval) and running it
	// spends sched.ApproxSteps(q, cacheInterval) of the request's quality
	// budget. 0 for plain options.
	cacheInterval int
}

// candidate is a request together with its per-round options. Candidates
// live in the scheduler's scratch arena and are recycled every round.
type candidate struct {
	st *sched.RequestState
	// options holds runnable options (q > 0), lowest degree first —
	// matching Figure 6's shape of spending cheap degrees early. It aliases
	// optbuf (a minimal-GPU-hour mix has at most two degrees, each of which
	// may add one cache-assisted variant), so building options allocates
	// nothing.
	options []option
	optbuf  [4]option
	// surviveNone is sv_i(none).
	surviveNone bool
	// tmin is the fastest profiled step time for the resolution.
	tmin time.Duration
	// selected marks candidates the DP chose and placement mapped, so the
	// work-conserving admission pass can skip them without a lookup table.
	selected bool
}

// buildCandidate runs the §4.2.1 deadline-aware GPU allocation for one
// request into the supplied scratch slot: find the minimal-GPU-hour mix of
// degrees meeting the deadline, then derive this round's options from the
// mix. Returns false when the request has no remaining steps.
func (s *Scheduler) buildCandidate(prof *costmodel.Profile, now, tNext time.Duration, st *sched.RequestState, c *candidate) bool {
	if st.Remaining <= 0 {
		return false
	}
	s.ensureMemo(prof) // no-op (and write-free) when the profile is unchanged
	res := st.Req.Res
	budget := st.Deadline() - now
	tmin := s.minStep(prof, res)

	mix := s.minGPUHourMix(prof, res, st.Remaining, budget)
	*c = candidate{st: st, tmin: tmin}
	c.options = c.optbuf[:0]
	c.surviveNone = tNext+time.Duration(st.Remaining)*tmin <= st.Deadline()

	window := s.window()
	for _, entry := range mix {
		q := int(window / entry.stepTime)
		if q <= 0 {
			continue // Algorithm 1 line 6 discards zero-progress options.
		}
		if q > entry.planSteps {
			q = entry.planSteps
		}
		remainingAfter := st.Remaining - q
		survive := tNext+time.Duration(remainingAfter)*tmin <= st.Deadline()
		c.options = append(c.options, option{
			degree:    entry.degree,
			planSteps: entry.planSteps,
			stepTime:  entry.stepTime,
			q:         q,
			survive:   survive,
		})
	}
	s.addCachedOptions(prof, tNext, st, c)
	return true
}

// addCachedOptions extends a candidate with the step-cache dimension when NO
// base option survives at plain tmin — the deadline is infeasible at
// interval 1 at every degree. Two regimes, both gated on MaxCacheInterval > 1
// so default planning stays bit-identical:
//
//   - The request is still inside the protected prefix (fewer than
//     CacheProtectedSteps effective steps computed): no cached block may run
//     yet, but if the best cache-assisted tail after this round's plain block
//     still meets the deadline, the base options are marked surviving — the
//     DP keeps the request prioritized through the prefix instead of starving
//     it before a rescue becomes legal.
//   - The prefix is done: each base option gains a variant at the cheapest
//     cache interval (the least quality spent per step) whose post-block
//     best-case projection clears the deadline. Base options stay
//     non-surviving so the DP realizes the rescue (runs the cached block) —
//     deferring at the same survival value would spend rounds without
//     spending budget and convert nothing.
//
// Caching is strictly a rescue: a request with a surviving plain option never
// trades deadline headroom for GPU savings, since a cache-assisted
// "survivor" projected at best case has no slack against queueing.
func (s *Scheduler) addCachedOptions(prof *costmodel.Profile, tNext time.Duration, st *sched.RequestState, c *candidate) {
	maxC := s.cfg.MaxCacheInterval
	if maxC <= 1 {
		return
	}
	for oi := range c.options {
		if c.options[oi].survive {
			return
		}
	}
	budgetLeft := st.Req.QualityBudget - st.QualityUsed
	if budgetLeft <= 0 {
		return
	}
	total := st.Req.Steps - st.Req.SkippedSteps
	done := total - st.Remaining
	// The protection zone forbids approximating the first/last N effective
	// steps; maxQ is the largest cached block startable at `done`.
	maxQ := st.Remaining - sched.CacheProtectedSteps
	if done < sched.CacheProtectedSteps {
		for oi := range c.options {
			o := &c.options[oi]
			if s.cacheFeasibleAt(prof, st, c.tmin, tNext, st.Remaining-o.q, done+o.q, budgetLeft) {
				o.survive = true
			}
		}
		return
	}
	if maxQ <= 0 {
		return
	}
	window := s.window()
	base := len(c.options)
	for oi := 0; oi < base; oi++ {
		o := &c.options[oi]
		for ci := 2; ci <= maxC; ci++ {
			tc := time.Duration(float64(o.stepTime) * prof.CacheDiscount(ci))
			q := int(window / tc)
			if q > maxQ {
				q = maxQ
			}
			// Spend no more quality than the budget allows: shrink the block
			// until its approximated-step count fits.
			for q > 0 && sched.ApproxSteps(q, ci) > budgetLeft {
				q--
			}
			if q <= 0 {
				continue
			}
			if !s.cacheFeasibleAt(prof, st, c.tmin, tNext, st.Remaining-q, done+q,
				budgetLeft-sched.ApproxSteps(q, ci)) {
				continue
			}
			c.options = append(c.options, option{
				degree:        o.degree,
				planSteps:     o.planSteps,
				stepTime:      tc,
				q:             q,
				survive:       true,
				cacheInterval: ci,
			})
			break
		}
	}
}

// cacheFeasibleAt reports whether `remaining` steps, resuming at tStart with
// `done` effective steps already computed and budgetLeft quality to spend,
// can still meet st's deadline in the best cache-assisted case: every
// approximable step (outside the protected first/last CacheProtectedSteps,
// capped by the budget) runs at γ·tmin, the rest at plain tmin (the
// caller's cached minStep for st's resolution), with
// cacheRescueMargin of slack absorbing round quantization and jitter. This
// single projection backs the definitely-late relief, the protected-prefix
// survival flip, and the per-option rescue gate, so a request is kept alive
// for the cache dimension exactly when a rescue can still be realized.
func (s *Scheduler) cacheFeasibleAt(prof *costmodel.Profile, st *sched.RequestState, tmin, tStart time.Duration, remaining, done, budgetLeft int) bool {
	// a is the best-case approximated-step count ahead; 0 (no approximable
	// span or no budget left) degrades the projection to plain service —
	// still feasible when the remainder is small enough.
	a := 0
	if s.cfg.MaxCacheInterval > 1 && budgetLeft > 0 {
		total := st.Req.Steps - st.Req.SkippedSteps
		start := done
		if start < sched.CacheProtectedSteps {
			start = sched.CacheProtectedSteps
		}
		if span := total - sched.CacheProtectedSteps - start; span > 0 {
			a = sched.ApproxSteps(span, s.cfg.MaxCacheInterval)
			if a > budgetLeft {
				a = budgetLeft
			}
		}
	}
	gamma := prof.CachedStepRelCost()
	minRemaining := time.Duration(remaining-a)*tmin + time.Duration(float64(a)*gamma*float64(tmin))
	return tStart+minRemaining+s.cacheRescueMargin() <= st.Deadline()
}

// cacheRescueMargin is the deadline slack a cache-assisted rescue must
// clear beyond its best-case projection: a quarter round, absorbing round
// quantization and step-time jitter so rescues are planned only when they
// are likely to convert, not when they would land on the deadline edge.
// The margin must stay below the full-budget discount benefit
// (budget·(1−γ)·tmin) or no rescue can ever fire: a request only enters the
// rescue path once plain service is already infeasible, so the discount has
// to cover both the shortfall and the margin.
func (s *Scheduler) cacheRescueMargin() time.Duration { return s.tau / 4 }

// mixEntry is one (degree, steps) element of an allocation plan.
type mixEntry struct {
	degree    int
	planSteps int
	stepTime  time.Duration
}

// mixBudget maps a raw deadline budget to the one the solver sees. With
// DeadlineBucket set it floors the budget to a bucket multiple — strictly
// conservative (never more slack than the request has) and shared between
// the memo key and the solve input so the two cannot disagree.
func (s *Scheduler) mixBudget(budget time.Duration) time.Duration {
	b := s.cfg.DeadlineBucket
	if b <= 0 {
		return budget
	}
	q := budget / b
	if budget < 0 && budget%b != 0 {
		q-- // floor, not truncate: negative budgets round away from zero
	}
	return q * b
}

// minGPUHourMix returns the §4.2.1 minimal-GPU-hour allocation, memoized per
// (resolution, remaining steps, budget) within the current plan. The memo is
// exact for the (possibly bucket-quantized) budget — see mixKey — so a hit
// returns the byte-identical plan the solver would recompute; callers must
// treat the returned slice as read-only.
func (s *Scheduler) minGPUHourMix(prof *costmodel.Profile, res model.Resolution, steps int, budget time.Duration) []mixEntry {
	s.ensureMemo(prof)
	sc := &s.scratch
	key := mixKey{res: res, steps: steps, budget: s.mixBudget(budget)}
	if mix, ok := sc.mixMemo[key]; ok {
		return mix
	}
	out, n := solveMix(key.steps, key.budget, s.degCfgs(prof, key.res))
	var mix []mixEntry
	if n == 1 {
		mix = sc.putMix1(out[0])
	} else {
		mix = sc.putMix2(out[0], out[1])
	}
	sc.mixMemo[key] = mix
	return mix
}

// buildDegCfgs computes the per-degree effective costs for one resolution —
// a pure function of (profile, resolution, window, quantization flag), all
// fixed within a memo epoch, so degCfgs caches its result per resolution.
func (s *Scheduler) buildDegCfgs(prof *costmodel.Profile, res model.Resolution) []degCfg {
	degrees := prof.Degrees()
	window := s.window()
	cfgs := make([]degCfg, 0, len(degrees))
	for _, k := range degrees {
		t := prof.StepTime(res, k)
		q := int(window / t)
		if q <= 0 {
			continue // degree cannot complete a step within a round
		}
		eff := t
		if s.cfg.QuantizationAwareMix {
			// Round quantization: q steps occupy the whole window, so the
			// *effective* per-step time (and GPU-hour cost) a degree pays
			// under round-based execution is window/q, not T(k). Planning
			// with effective times steers the mix away from degrees whose
			// steps tile the round poorly.
			eff = window / time.Duration(q)
		}
		cfgs = append(cfgs, degCfg{k: k, t: eff, g: float64(k) * eff.Seconds()})
	}
	if len(cfgs) == 0 {
		// Window shorter than every step time can only happen with a
		// pathological granularity; fall back to raw profile times.
		for _, k := range degrees {
			t := prof.StepTime(res, k)
			cfgs = append(cfgs, degCfg{k: k, t: t, g: float64(k) * t.Seconds()})
		}
	}
	return cfgs
}

// solveMix solves §4.2.1's per-request optimization over the profiled
// lookup table: split the remaining steps across at most two degrees so
// that total time fits the budget while total GPU-seconds are minimized.
// Two degrees suffice because GPU-seconds g(k)=k·T(k) and latency T(k) move
// in opposite directions along the profiled frontier, so the optimum is a
// split between two frontier points (the shape Figure 6 depicts). When even
// the fastest degree misses the budget, the fastest single-degree plan is
// returned so the request still makes best progress.
//
// The result is returned by value (≤ 2 entries plus a count) and cfgs is
// read-only, so the function is pure: parallel candidate construction
// (parallel.go) calls it from several goroutines against the shared cache.
func solveMix(steps int, budget time.Duration, cfgs []degCfg) ([2]mixEntry, int) {
	// The winning plan is tracked as indices into cfgs (single ≥ 0, or the
	// slow/fast pair with x steps at slow) and materialized once at the end,
	// so losing plans cost no allocation.
	bestCost := -1.0
	bestSingle, bestSlow, bestFast, bestX := -1, -1, -1, 0
	consider := func(cost float64, single, slow, fast, x int) {
		if bestCost < 0 || cost < bestCost-1e-12 {
			bestCost = cost
			bestSingle, bestSlow, bestFast, bestX = single, slow, fast, x
		}
	}

	// Single-degree plans.
	for i, c := range cfgs {
		if time.Duration(steps)*c.t <= budget {
			consider(float64(steps)*c.g, i, -1, -1, 0)
		}
	}
	// Two-degree plans: x steps at a slower/cheaper degree, the rest at a
	// faster one, with x maximized subject to the deadline.
	for si, slow := range cfgs {
		for fi, fast := range cfgs {
			if fast.t >= slow.t || slow.g >= fast.g {
				continue // need fast strictly faster and slow strictly cheaper
			}
			if time.Duration(steps)*fast.t > budget {
				continue // even all-fast misses; no feasible split
			}
			slack := budget - time.Duration(steps)*fast.t
			x := int(slack / (slow.t - fast.t))
			if x <= 0 {
				continue
			}
			if x >= steps {
				continue // degenerates to the all-slow single plan
			}
			consider(float64(x)*slow.g+float64(steps-x)*fast.g, -1, si, fi, x)
		}
	}

	switch {
	case bestSingle >= 0:
		c := cfgs[bestSingle]
		return [2]mixEntry{{degree: c.k, planSteps: steps, stepTime: c.t}}, 1
	case bestSlow >= 0:
		slow, fast := cfgs[bestSlow], cfgs[bestFast]
		mix := [2]mixEntry{
			{degree: slow.k, planSteps: bestX, stepTime: slow.t},
			{degree: fast.k, planSteps: steps - bestX, stepTime: fast.t},
		}
		// Lowest degree first: spend cheap parallelism early, scale up
		// closer to the deadline (Figure 6).
		if mix[0].degree > mix[1].degree {
			mix[0], mix[1] = mix[1], mix[0]
		}
		return mix, 2
	}

	// Infeasible even at maximum parallelism: run everything at the
	// latency-optimal degree (the caller's definitely-late filter normally
	// prevents reaching here, but mid-round drift can).
	fastest := 0
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].t < cfgs[fastest].t {
			fastest = i
		}
	}
	c := cfgs[fastest]
	return [2]mixEntry{{degree: c.k, planSteps: steps, stepTime: c.t}}, 1
}
