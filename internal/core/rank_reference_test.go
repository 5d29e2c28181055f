package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/queryparse"
	"soda/internal/warehouse"
)

// The materialising Step 2 survives here verbatim as a reference oracle:
// it builds every combination of the capped product as a solution, sorts
// them all and truncates to TopN. rank scores the combinations in place
// and keeps only the best TopN; the tests below require identical
// solutions on random candidate lists and on the real pipeline's.
func refRank(s *System, a *Analysis) {
	var active [][]EntryPoint
	for _, cands := range a.Candidates {
		if len(cands) > 0 {
			active = append(active, cands)
		}
	}
	if len(active) == 0 {
		return
	}

	combos := [][]EntryPoint{{}}
	for _, cands := range active {
		var next [][]EntryPoint
		for _, prefix := range combos {
			for _, c := range cands {
				combo := make([]EntryPoint, len(prefix), len(prefix)+1)
				copy(combo, prefix)
				next = append(next, append(combo, c))
				if len(next) >= s.Opt.MaxSolutions {
					break
				}
			}
			if len(next) >= s.Opt.MaxSolutions {
				break
			}
		}
		combos = next
	}

	sols := make([]*Solution, 0, len(combos))
	for _, combo := range combos {
		score := 0.0
		for _, e := range combo {
			score += e.Score
		}
		score /= float64(len(combo))
		sols = append(sols, &Solution{Entries: combo, Score: score, TopN: a.Query.TopN})
	}

	sort.SliceStable(sols, func(i, j int) bool { return sols[i].Score > sols[j].Score })
	if len(sols) > s.Opt.TopN {
		sols = sols[:s.Opt.TopN]
	}
	a.Solutions = sols
}

// checkRankMatchesReference ranks a's candidates both ways and fails on
// any difference in the solutions.
func checkRankMatchesReference(t *testing.T, s *System, a *Analysis, what string) {
	t.Helper()
	got := &Analysis{Query: a.Query, Candidates: a.Candidates}
	want := &Analysis{Query: a.Query, Candidates: a.Candidates}
	s.rank(got)
	refRank(s, want)
	if len(got.Solutions) != len(want.Solutions) {
		t.Fatalf("%s: %d solutions, reference %d", what, len(got.Solutions), len(want.Solutions))
	}
	for i := range got.Solutions {
		if !reflect.DeepEqual(got.Solutions[i], want.Solutions[i]) {
			t.Fatalf("%s: solution %d differs\ngot:  %+v\nwant: %+v", what, i, got.Solutions[i], want.Solutions[i])
		}
	}
}

// TestRankMatchesReferenceRandom covers the cap, the TopN cut and ties:
// scores come from a small set, so many combinations score the same.
func TestRankMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20120827))
	scores := []float64{0.1, 0.5, 0.7, 1, 1.3}
	for i := 0; i < 2000; i++ {
		opt := Options{
			TopN:         []int{1, 2, 3, 10}[r.Intn(4)],
			MaxSolutions: []int{1, 2, 5, 7, 64, 4096}[r.Intn(6)],
			CacheSize:    -1,
		}
		s := &System{Opt: opt}
		a := &Analysis{Query: &queryparse.Query{TopN: r.Intn(3)}}
		if r.Intn(4) == 0 {
			a.Query.Aggregations = []queryparse.Aggregation{{Func: "count"}}
		}
		a.Candidates = make([][]EntryPoint, r.Intn(6))
		for ti := range a.Candidates {
			for ci, n := 0, r.Intn(7); ci < n; ci++ {
				a.Candidates[ti] = append(a.Candidates[ti], EntryPoint{
					Term:  ti,
					Table: fmt.Sprintf("t%d_%d", ti, ci),
					Score: scores[r.Intn(len(scores))],
				})
			}
		}
		checkRankMatchesReference(t, s, a, fmt.Sprintf("case %d (%+v)", i, opt))
	}
}

// TestPipelineRankMatchesReference re-ranks the candidates the real
// lookup step produces, on MiniBank and on the warehouse, whose queries
// reach the MaxSolutions cap.
func TestPipelineRankMatchesReference(t *testing.T) {
	w := warehouse.Build(warehouse.Default())
	corpora := []struct {
		name string
		sys  *System
		qs   []string
	}{
		{"minibank", newSys(t, Options{CacheSize: -1}), determinismQueries},
		{"warehouse", NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1}), warehouseBenchQueries},
	}
	for _, c := range corpora {
		for _, q := range c.qs {
			a, err := c.sys.Search(q)
			if err != nil {
				t.Fatalf("%s: Search(%q): %v", c.name, q, err)
			}
			checkRankMatchesReference(t, c.sys, a, c.name+": "+q)
		}
	}
}
