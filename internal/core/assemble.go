package core

import (
	"cmp"
	"slices"
	"time"

	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// placed is an in-progress assignment before final emission. Instances live
// in the scheduler's scratch arena (planScratch.placed) and are recycled
// every round; pointers to them are only valid within one Plan call.
type placed struct {
	cand     *candidate
	degree   int
	steps    int
	stepTime time.Duration
	group    simgpu.Mask
	// members is non-nil once continuous batching merged several requests.
	// It aliases planScratch.memberArena.
	members []*candidate
	// bestEffort marks the ≤1-GPU lane for already-late requests.
	bestEffort bool
	// aligned reports the block fits the round window (the tick waits for
	// aligned blocks only).
	aligned bool
	// cacheInterval > 1 marks a step-cache-assisted block: stepTime and
	// steps were derived at the discounted cost and the block stays
	// single-request (no batching, no elastic scale-up — the cadence and
	// quality ledger are per-request).
	cacheInterval int
}

// assemble turns DP selections into concrete assignments: placement
// (preservation-aware), selective continuous batching, work-conserving
// admission of unselected requests, the best-effort lane for late requests,
// and elastic scale-up across all of them. The returned plan lives in the
// scheduler's scratch and is valid until the next Plan call.
func (s *Scheduler) assemble(ctx *sched.PlanContext, sels []selection, cands []*candidate, late []*sched.RequestState) []sched.Assignment {
	sc := &s.scratch
	free := ctx.Free

	// The placement arena must never reallocate once pointers are taken:
	// each candidate is placed at most once (DP pass or work-conserving
	// admission, never both) and the best-effort lane adds at most one
	// block per GPU of its budget. Growth is amortized, so a backlog that
	// climbs by a few requests a round does not reallocate every round.
	sc.placed = slices.Grow(sc.placed[:0], len(cands)+s.cfg.BestEffortGPUs)
	sc.placedPtr = sc.placedPtr[:0]

	// --- Placement (big groups first to limit fragmentation). ---
	ordered := sc.ordered[:0]
	for _, sel := range sels {
		if sel.optIdx >= 0 {
			ordered = append(ordered, sel)
		}
	}
	slices.SortStableFunc(ordered, func(a, b selection) int {
		return b.cand.options[b.optIdx].degree - a.cand.options[a.optIdx].degree
	})
	sc.ordered = ordered

	for _, sel := range ordered {
		opt := sel.cand.options[sel.optIdx]
		p := s.place(ctx, free, sel.cand, opt.degree, opt.cacheInterval)
		if p == nil {
			s.placementFailures++
			continue
		}
		free = free.Without(p.group)
		sc.placedPtr = append(sc.placedPtr, p)
		sel.cand.selected = true
	}

	// --- Selective continuous batching (§5). ---
	if s.cfg.SelectiveBatching {
		free = s.batchSmall(ctx, sc.placedPtr, free)
	}

	// --- Work-conserving admission of DP-skipped requests. ---
	unplaced := sc.unplaced[:0]
	for _, c := range cands {
		if !c.selected && len(c.options) > 0 {
			unplaced = append(unplaced, c)
		}
	}
	sc.unplaced = unplaced
	slices.SortStableFunc(unplaced, func(a, b *candidate) int {
		return cmp.Compare(a.st.Deadline(), b.st.Deadline())
	})
	for _, c := range unplaced {
		if free == 0 {
			break
		}
		opt := c.options[0]
		p := s.place(ctx, free, c, opt.degree, opt.cacheInterval)
		if p == nil {
			continue
		}
		free = free.Without(p.group)
		sc.placedPtr = append(sc.placedPtr, p)
	}

	// --- Best-effort lane for definitely-late requests (§4.2.2): at most
	// one GPU each, from leftovers only, scaled up later if GPUs idle. ---
	if s.cfg.BestEffortLane {
		window := s.window()
		// Budget the lane: already-running late blocks (multi-round SP=1
		// blocks from earlier rounds) count against the cap so stragglers
		// cannot starve on-time requests of capacity.
		budget := s.cfg.BestEffortGPUs
		for _, st := range ctx.Running {
			if s.definitelyLate(ctx.Profile, st, ctx.Now) {
				budget--
			}
		}
		lane := sc.earliestDeadlines(late, budget)
		sc.lateArena = slices.Grow(sc.lateArena[:0], len(lane))
		for _, st := range lane {
			if free.Count() == 0 {
				break
			}
			g := sched.AlignedGroup(ctx.Topo, free, 1, st.LastGroup)
			if g == 0 {
				break
			}
			t := ctx.Profile.StepTime(st.Req.Res, 1)
			q := int(window / t)
			aligned := true
			if q < 1 {
				// A single step exceeds the round: run it as a
				// multi-round block the tick does not wait for.
				q = 1
				aligned = false
			}
			if q > st.Remaining {
				q = st.Remaining
			}
			free = free.Without(g)
			sc.lateArena = append(sc.lateArena, candidate{st: st})
			sc.placed = append(sc.placed, placed{
				cand:       &sc.lateArena[len(sc.lateArena)-1],
				degree:     1,
				steps:      q,
				stepTime:   t,
				group:      g,
				bestEffort: true,
				aligned:    aligned,
			})
			sc.placedPtr = append(sc.placedPtr, &sc.placed[len(sc.placed)-1])
		}
	}

	// --- Elastic scale-up over everything placed (§4.2.3). ---
	if s.cfg.ElasticScaleUp {
		free = s.scaleUp(ctx, sc.placedPtr, free)
	}

	// --- Emit. The plan and the Requests slices it references alias the
	// scheduler's scratch (see sched.Scheduler's Plan contract); retainers
	// such as the engine copy what they keep. ---
	total := 0
	for _, p := range sc.placedPtr {
		if p.group != 0 {
			total += 1 + len(p.members)
		}
	}
	if cap(sc.ids) < total {
		sc.ids = make([]workload.RequestID, 0, total)
	}
	sc.ids = sc.ids[:0]
	plan := sc.plan[:0]
	for _, p := range sc.placedPtr {
		if p.group == 0 {
			continue // absorbed into a batch
		}
		start := len(sc.ids)
		sc.ids = append(sc.ids, p.cand.st.Req.ID)
		for _, m := range p.members {
			sc.ids = append(sc.ids, m.st.Req.ID)
		}
		plan = append(plan, sched.Assignment{
			Requests:      sc.ids[start:len(sc.ids):len(sc.ids)],
			Group:         p.group,
			Steps:         p.steps,
			RoundAligned:  p.aligned,
			BestEffort:    p.bestEffort,
			CacheInterval: p.cacheInterval,
		})
	}
	sc.plan = plan
	return plan
}

// earliestDeadlines returns the k earliest-deadline requests of sts in
// deadline order, equal deadlines in input order: the first k entries a
// stable sort by deadline would give, found in one pass. The best-effort
// lane serves at most its GPU budget of late requests, so sorting the whole
// late set every round would be wasted work. The result aliases scratch.
func (sc *planScratch) earliestDeadlines(sts []*sched.RequestState, k int) []*sched.RequestState {
	if k <= 0 {
		return nil
	}
	out := sc.lane[:0]
	for _, st := range sts {
		d := st.Deadline()
		if len(out) == k && d >= out[k-1].Deadline() {
			continue
		}
		// Insert after every kept request due no later than st, dropping
		// the latest one when full.
		i := len(out)
		for i > 0 && out[i-1].Deadline() > d {
			i--
		}
		if len(out) < k {
			out = append(out, nil)
		}
		copy(out[i+1:], out[i:len(out)-1])
		out[i] = st
	}
	sc.lane = out
	return out
}

// place maps a (candidate, degree) onto a concrete free group, degrading to
// smaller degrees when alignment fails. The block is taken from the scratch
// placement arena; returns nil if not even one GPU is available. A cache
// interval > 1 prices steps at the discounted cost and re-clips the block to
// the quality budget and protection zone at whatever degree placement lands
// on.
func (s *Scheduler) place(ctx *sched.PlanContext, free simgpu.Mask, c *candidate, degree, interval int) *placed {
	window := s.window()
	for k := degree; k >= 1; k /= 2 {
		t := ctx.Profile.StepTime(c.st.Req.Res, k)
		if interval > 1 {
			t = ctx.Profile.StepTimeCached(c.st.Req.Res, k, interval)
		}
		q := int(window / t)
		if q <= 0 {
			continue
		}
		if q > c.st.Remaining {
			q = c.st.Remaining
		}
		if interval > 1 {
			q = clipCachedSteps(c.st, q, interval)
			if q <= 0 {
				continue
			}
		}
		var g simgpu.Mask
		if s.cfg.PlacementPreservation {
			g = sched.AlignedGroup(ctx.Topo, free, k, c.st.LastGroup)
		} else {
			g = sched.RandomGroup(free, k, s.rng)
		}
		if g == 0 {
			continue
		}
		sc := &s.scratch
		sc.placed = append(sc.placed, placed{
			cand: c, degree: k, steps: q, stepTime: t, group: g, aligned: true,
			cacheInterval: interval,
		})
		return &sc.placed[len(sc.placed)-1]
	}
	return nil
}

// clipCachedSteps shrinks a cached block so it stays outside the protected
// first/last steps and within the request's remaining quality budget.
// Returns 0 when no cached block is currently legal.
func clipCachedSteps(st *sched.RequestState, q, interval int) int {
	total := st.Req.Steps - st.Req.SkippedSteps
	done := total - st.Remaining
	if done < sched.CacheProtectedSteps {
		return 0
	}
	if maxQ := st.Remaining - sched.CacheProtectedSteps; q > maxQ {
		q = maxQ
	}
	budgetLeft := st.Req.QualityBudget - st.QualityUsed
	for q > 0 && sched.ApproxSteps(q, interval) > budgetLeft {
		q--
	}
	return q
}

// batchSmall merges width-1 placements of the same small resolution into
// continuous batches when every member's survival is preserved, freeing the
// donors' GPUs. Returns the updated free mask.
func (s *Scheduler) batchSmall(ctx *sched.PlanContext, placedList []*placed, free simgpu.Mask) simgpu.Mask {
	tNext := ctx.Now + s.tau
	sc := &s.scratch
	batchable := sc.batchable[:0]
	for _, p := range placedList {
		if p.degree != 1 || len(p.members) > 0 || p.bestEffort || p.cacheInterval > 1 {
			continue
		}
		// Latent tokens = pixels/16² for both models; batching only pays
		// for small resolutions that underutilize a GPU.
		tokens := p.cand.st.Req.Res.Pixels() / 256
		if ctx.Profile.Has(p.cand.st.Req.Res) && tokens <= s.cfg.BatchTokenCap {
			batchable = append(batchable, p)
		}
	}
	sc.batchable = batchable
	// Group by resolution, earliest deadline first within a group. Groups
	// are independent — merges happen within one resolution and only ever
	// release GPUs into free — so visiting them in pixel order rather than
	// the lexicographic string order of the map-based version changes no
	// observable outcome.
	slices.SortStableFunc(batchable, func(a, b *placed) int {
		ra, rb := a.cand.st.Req.Res, b.cand.st.Req.Res
		if ra != rb {
			if c := cmp.Compare(ra.Pixels(), rb.Pixels()); c != 0 {
				return c
			}
			return cmp.Compare(ra.W, rb.W)
		}
		return cmp.Compare(a.cand.st.Deadline(), b.cand.st.Deadline())
	})
	if cap(sc.memberArena) < len(batchable) {
		sc.memberArena = make([]*candidate, 0, len(batchable))
	}
	sc.memberArena = sc.memberArena[:0]
	for gi := 0; gi < len(batchable); {
		gj := gi + 1
		for gj < len(batchable) && batchable[gj].cand.st.Req.Res == batchable[gi].cand.st.Req.Res {
			gj++
		}
		group := batchable[gi:gj]
		gi = gj
		if len(group) < 2 {
			continue
		}
		host := group[0]
		start := len(sc.memberArena)
		for _, donor := range group[1:] {
			bs := 1 + len(host.members) + 1
			if bs > s.cfg.MaxBatch {
				break
			}
			tb := ctx.Profile.StepTimeBatch(host.cand.st.Req.Res, 1, profiledBatch(bs))
			qb := int(s.window() / tb)
			if qb <= 0 {
				break
			}
			// Joint step count: every member advances up to `steps` this
			// round (clipped to its own remaining by the engine). The block
			// executes min(qb, host remaining) steps, so survival must be
			// tested at that clipped count — a donor with more remaining
			// than the host makes less progress than qb would suggest.
			steps := qb
			if steps > host.cand.st.Remaining {
				steps = host.cand.st.Remaining
			}
			if steps <= 0 {
				continue
			}
			ok := survivesBatch(tNext, host.cand, steps) && survivesBatch(tNext, donor.cand, steps)
			for _, m := range host.members {
				if !ok {
					break
				}
				ok = survivesBatch(tNext, m, steps)
			}
			if !ok {
				continue
			}
			sc.memberArena = append(sc.memberArena, donor.cand)
			host.members = sc.memberArena[start:len(sc.memberArena):len(sc.memberArena)]
			host.steps = steps
			host.stepTime = tb
			free = free.Union(donor.group)
			donor.group = 0 // mark absorbed; emission skips group 0
		}
	}
	return free
}

// survivesBatch reports whether running `steps` joint steps this round keeps
// member m on time at the next round boundary.
func survivesBatch(tNext time.Duration, m *candidate, steps int) bool {
	st := steps
	if st > m.st.Remaining {
		st = m.st.Remaining
	}
	after := m.st.Remaining - st
	return tNext+time.Duration(after)*m.tmin <= m.st.Deadline()
}

// scaleUp grants leftover GPUs to placed requests whose per-step time
// improves at double the degree, prioritizing active (non-late) requests,
// then the largest per-round gain — §4.2.3's work-conserving elastic
// scale-up, which the paper applies to best-effort requests too.
func (s *Scheduler) scaleUp(ctx *sched.PlanContext, placedList []*placed, free simgpu.Mask) simgpu.Mask {
	window := s.window()
	for {
		var best *placed
		var bestGroup simgpu.Mask
		bestGain := time.Duration(0)
		bestExtraSteps := -1
		bestActive := false
		better := func(active bool, extra int, gain time.Duration) bool {
			if best == nil {
				return true
			}
			if active != bestActive {
				return active
			}
			if extra != bestExtraSteps {
				return extra > bestExtraSteps
			}
			return gain > bestGain
		}
		for _, p := range placedList {
			if p == nil || p.group == 0 || len(p.members) > 0 || p.cacheInterval > 1 {
				// Cached blocks are excluded: growing one re-prices its steps
				// at a new degree mid-ledger, and its quality spend was
				// clipped for the emitted (degree, steps) pair.
				continue
			}
			k2 := p.degree * 2
			if k2 > ctx.Topo.N {
				continue
			}
			t2 := ctx.Profile.StepTime(p.cand.st.Req.Res, k2)
			if t2 >= p.stepTime {
				continue // no benefit from extra parallelism (T(k') < T(k))
			}
			// Prefer growing in place via the free buddy; otherwise move to
			// any aligned group assembled from free GPUs plus its own.
			var g simgpu.Mask
			if buddy := sched.BuddyOf(ctx.Topo, p.group); buddy != 0 && buddy&^free == 0 {
				g = p.group.Union(buddy)
			} else {
				g = sched.AlignedGroup(ctx.Topo, free.Union(p.group), k2, p.group)
			}
			if g == 0 {
				continue
			}
			q2 := int(window / t2)
			if q2 <= 0 {
				q2 = 1 // still a multi-round improvement for huge steps
			}
			if q2 > p.cand.st.Remaining {
				q2 = p.cand.st.Remaining
			}
			extraSteps := q2 - p.steps
			if extraSteps < 0 {
				continue
			}
			gain := time.Duration(p.steps)*(p.stepTime-t2) + time.Duration(extraSteps)*t2
			if better(!p.bestEffort, extraSteps, gain) {
				best = p
				bestGroup = g
				bestGain = gain
				bestExtraSteps = extraSteps
				bestActive = !p.bestEffort
			}
		}
		if best == nil {
			return free
		}
		k2 := best.degree * 2
		free = free.Union(best.group).Without(bestGroup)
		best.group = bestGroup
		best.degree = k2
		best.stepTime = ctx.Profile.StepTime(best.cand.st.Req.Res, k2)
		q := int(window / best.stepTime)
		if q <= 0 {
			q = 1
		}
		if q > best.cand.st.Remaining {
			q = best.cand.st.Remaining
		}
		best.steps = q
		best.aligned = time.Duration(best.steps)*best.stepTime <= window
	}
}

// profiledBatch rounds a batch size up to the next profiled power of two
// (the lookup table is built for bs ∈ {1,2,4,8}); the estimate is
// conservative for in-between sizes.
func profiledBatch(bs int) int {
	b := 1
	for b < bs {
		b *= 2
	}
	if b > 8 {
		b = 8
	}
	return b
}
