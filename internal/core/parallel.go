package core

// Parallel candidate construction for Config.Workers > 1. The per-request
// §4.2.1 mix solves dominate candidate building at deep queues and are pure
// functions of (profile, resolution, steps, budget, config), so they
// parallelize without changing a single output bit — provided the shared
// memo and result slab are only touched from one goroutine. The three-pass
// structure guarantees that:
//
//  1. sequentially collect the unique memo-missing mix keys, in first-seen
//     order;
//  2. solve them in parallel with per-worker scratch, results landing in a
//     preassigned slot per key; then merge into the memo sequentially in
//     pass-1 order, so the slab layout is deterministic;
//  3. build candidates in parallel into disjoint arena slots — every mix
//     lookup now hits the read-only memo — and append the survivors to the
//     candidate list sequentially, preserving input order.
//
// Pass 2/3 goroutines read the profile table concurrently, which the
// costmodel package documents as safe (reads never mutate).

import (
	"sync"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/sched"
)

// parallelMinActive gates the parallel path: below this many active
// requests, goroutine fan-out costs more than the solves. Tests lower it to
// exercise the path on small instances.
var parallelMinActive = 64

// mixJob is one memoized-solve work item: a key plus its result slot.
type mixJob struct {
	key mixKey
	out [2]mixEntry
	n   int
}

// parScratch holds the reusable buffers of the parallel build path.
type parScratch struct {
	jobs []mixJob
	seen map[mixKey]struct{}
	ok   []bool
}

// buildCandidatesParallel is the Workers>1 equivalent of the sequential
// candidate loop in Plan, bit-identical in its effect on scratch.cands.
func (s *Scheduler) buildCandidatesParallel(prof *costmodel.Profile, active []*sched.RequestState, now, tNext time.Duration) {
	sc := &s.scratch
	p := &sc.par
	workers := s.cfg.Workers

	// Pass 1: unique memo misses, first-seen order.
	if p.seen == nil {
		p.seen = make(map[mixKey]struct{})
	}
	clear(p.seen)
	p.jobs = p.jobs[:0]
	for _, st := range active {
		if st.Remaining <= 0 {
			continue
		}
		key := mixKey{res: st.Req.Res, steps: st.Remaining, budget: s.mixBudget(st.Deadline() - now)}
		s.degCfgs(prof, key.res) // intern now: pass 2/3 reads are then hit-only
		if _, hit := sc.mixMemo[key]; hit {
			continue
		}
		if _, queued := p.seen[key]; queued {
			continue
		}
		p.seen[key] = struct{}{}
		p.jobs = append(p.jobs, mixJob{key: key})
	}

	// Pass 2: parallel solves, deterministic merge.
	if len(p.jobs) > 0 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(p.jobs); i += workers {
					j := &p.jobs[i]
					j.out, j.n = solveMix(j.key.steps, j.key.budget, sc.cfgCache[j.key.res])
				}
			}(w)
		}
		wg.Wait()
		for i := range p.jobs {
			j := &p.jobs[i]
			if j.n == 1 {
				sc.mixMemo[j.key] = sc.putMix1(j.out[0])
			} else {
				sc.mixMemo[j.key] = sc.putMix2(j.out[0], j.out[1])
			}
		}
	}

	// Pass 3: parallel candidate builds into disjoint arena slots. Every
	// key buildCandidate derives was enumerated in pass 1 (the derivations
	// are identical), so the memo is hit-only and therefore read-only here.
	arena := sc.grabCandidates(len(active))
	if cap(p.ok) < len(active) {
		p.ok = make([]bool, len(active))
	}
	ok := p.ok[:len(active)]
	p.ok = ok
	var wg sync.WaitGroup
	chunk := (len(active) + workers - 1) / workers
	for lo := 0; lo < len(active); lo += chunk {
		hi := lo + chunk
		if hi > len(active) {
			hi = len(active)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ok[i] = s.buildCandidate(prof, now, tNext, active[i], &arena[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	for i := range active {
		if ok[i] {
			sc.cands = append(sc.cands, &arena[i])
		}
	}
}
