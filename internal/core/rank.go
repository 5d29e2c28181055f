package core

// rank implements Step 2 (Figure 4): enumerate the combinatorial product
// of entry points, score each combination by the location of its entry
// points in the metadata graph, and keep the best N. "We rank the domain
// ontology higher, because it was built by domain experts ... hence it is
// more likely to match the intent of our business users than the general
// terms found in DBpedia."
func (s *System) rank(a *Analysis) {
	// Terms without candidates are skipped entirely (unknown words are
	// ignored, §4.4.1: "'and' might be unknown and we therefore ignore
	// it").
	var buf [8][]EntryPoint
	active := buf[:0]
	for _, cands := range a.Candidates {
		if len(cands) > 0 {
			active = append(active, cands)
		}
	}
	if len(active) == 0 {
		return
	}

	// The product is enumerated in lexicographic order (the last term
	// varies fastest) and capped at MaxSolutions combinations. Each
	// combination is scored where it stands; only the best TopN, ties in
	// enumeration order, are ever materialised as solutions.
	n := 1
	for _, cands := range active {
		n = min(n*len(cands), s.Opt.MaxSolutions)
	}
	k, keep := len(active), min(n, s.Opt.TopN)
	// One index slab: the current combination first, then one pick array
	// per kept slot.
	picks := make([]int, (keep+1)*k)
	pick := picks[:k:k]
	best := make([]ranked, 0, keep)
	for i := 0; i < n; i++ {
		score := 0.0
		for t, c := range pick {
			score += active[t][c].Score
		}
		score /= float64(k)
		best = keepBest(best, ranked{score: score, pick: pick}, s.Opt.TopN, picks[k:])
		for t := k - 1; t >= 0; t-- {
			if pick[t]++; pick[t] < len(active[t]) {
				break
			}
			pick[t] = 0
		}
	}

	// The kept solutions and their entries are two slabs; each solution's
	// Entries is a capped window of the entry slab.
	sols := make([]*Solution, len(best))
	slab := make([]Solution, len(best))
	entries := make([]EntryPoint, len(best)*k)
	for i, r := range best {
		own := entries[i*k : (i+1)*k : (i+1)*k]
		for t, c := range r.pick {
			own[t] = active[t][c]
		}
		slab[i] = Solution{Entries: own, Score: r.score, TopN: a.Query.TopN}
		sols[i] = &slab[i]
	}
	a.Solutions = sols
}

// ranked is one scored combination: an index into each active term's
// candidates.
type ranked struct {
	score float64
	pick  []int
}

// keepBest inserts r into best, which holds at most limit combinations by
// descending score. r was enumerated after every combination in best, so
// it goes after those scoring at least as high: the order a stable sort of
// the whole product would give. A slot added to best takes the next pick
// array of spares (len(r.pick) ints per slot).
func keepBest(best []ranked, r ranked, limit int, spares []int) []ranked {
	at := len(best)
	for at > 0 && best[at-1].score < r.score {
		at--
	}
	if at >= limit {
		return best
	}
	if len(best) < limit {
		best = append(best, ranked{pick: spares[len(best)*len(r.pick):][:len(r.pick)]})
	}
	// Shift the tail down one slot; the slot that falls off the end lends
	// its pick array to r.
	spare := best[len(best)-1].pick
	copy(best[at+1:], best[at:len(best)-1])
	best[at] = ranked{score: r.score, pick: spare}
	copy(spare, r.pick)
	return best
}
