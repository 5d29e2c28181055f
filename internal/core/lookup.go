package core

import (
	"math"
	"strings"

	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/queryparse"
)

// lookup implements Step 1 (Figure 4): segment each keyword group into the
// longest word combinations known to the classification index (metadata
// labels) or the base data (inverted index), then produce the entry-point
// candidates per term. "The output of the lookup step is a combinatorial
// product of all lookup terms" — the product is materialised lazily in
// step 2 to honour Options.MaxSolutions.
func (s *System) lookup(a *Analysis) {
	q := a.Query
	s.derivedOnce.Do(s.buildDerived)

	// Plain keyword groups, with operator attachments. A group whose
	// words are all unknown has no term to take a comparison.
	groupLastTerm := make([]int, len(q.Groups))
	for gi, g := range q.Groups {
		segs, unknown := s.segment(g.Words)
		a.Ignored = append(a.Ignored, unknown...)
		groupLastTerm[gi] = -1
		for _, seg := range segs {
			a.Terms = append(a.Terms, Term{Text: seg, Role: RolePlain})
			groupLastTerm[gi] = len(a.Terms) - 1
		}
	}

	// Attach comparisons to the last term of their preceding group ("the
	// comparison operator will later on be applied to the keywords before
	// and after itself").
	for _, cmp := range q.Comparisons {
		if cmp.Group < 0 || cmp.Group >= len(groupLastTerm) || groupLastTerm[cmp.Group] < 0 {
			a.Ignored = append(a.Ignored, "operator "+cmp.Op)
			continue
		}
		ti := groupLastTerm[cmp.Group]
		a.Terms[ti].Comparisons = append(a.Terms[ti].Comparisons, cmp)
	}

	// Aggregation attributes and group-by attributes are terms too; their
	// entry points must resolve to columns.
	for _, agg := range q.Aggregations {
		if len(agg.Attr) == 0 {
			continue // count() — handled in SQL generation
		}
		segs, unknown := s.segment(agg.Attr)
		a.Ignored = append(a.Ignored, unknown...)
		for _, seg := range segs {
			a.Terms = append(a.Terms, Term{Text: seg, Role: RoleAggAttr, AggFunc: agg.Func})
		}
	}
	for _, gb := range q.GroupBy {
		segs, unknown := s.segment(gb)
		a.Ignored = append(a.Ignored, unknown...)
		for _, seg := range segs {
			a.Terms = append(a.Terms, Term{Text: seg, Role: RoleGroupBy})
		}
	}

	// Candidates per term, read from the compiled schema model's label
	// table (derived once per System) and the index's own table, scored
	// under the analysis's ranking.
	a.Candidates = make([][]EntryPoint, len(a.Terms))
	a.Complexity = 1
	for ti, term := range a.Terms {
		a.Candidates[ti] = s.candidates(a.ranking, ti, term)
	}
	// The product saturates: forty three-way terms would overflow an int.
	for _, cands := range a.Candidates {
		if n := len(cands); n > 0 {
			if a.Complexity > math.MaxInt/n {
				a.Complexity = math.MaxInt
			} else {
				a.Complexity *= n
			}
		}
	}
}

// segment implements the longest-word-combination matching of §4.2.2: try
// to match all words; on failure, recursively try smaller combinations;
// single words known to neither index are ignored (like "and" in the
// paper's example). A phrase of two or more words is known only as a
// label or a stored value, so no longer phrase than the longest of those
// is tried; the lengths are counted in normalised tokens, since a quoted
// word may hold several or none. A single word is always tried: it may
// match by the conjunction of its tokens.
func (s *System) segment(words []string) (segments []string, unknown []string) {
	limit := max(s.compiled().labelTokens, s.Index().MaxValueTokens())
	// pre[k] counts the normalised tokens of words[:k].
	var buf [16]int
	pre := append(buf[:0], 0)
	for _, w := range words {
		pre = append(pre, pre[len(pre)-1]+tokenCount(w))
	}
	end := 0 // words[i:end] is the longest run of at most limit tokens
	i := 0
	for i < len(words) {
		end = max(end, i)
		for end < len(words) && pre[end+1]-pre[i] <= limit {
			end++
		}
		matched := false
		for l := max(end-i, 1); l >= 1; l-- {
			phrase := termKey(words[i : i+l])
			if s.known(phrase) {
				segments = append(segments, phrase)
				i += l
				matched = true
				break
			}
		}
		if !matched {
			unknown = append(unknown, words[i])
			i++
		}
	}
	return segments, unknown
}

// tokenCount returns len(strings.Fields(invidx.Normalize(w))) without
// building the slice: Normalize joins its tokens with single spaces.
func tokenCount(w string) int {
	norm := invidx.Normalize(w)
	if norm == "" {
		return 0
	}
	return strings.Count(norm, " ") + 1
}

// known reports whether the phrase exists in the classification index or
// the base data. Multi-word phrases only count as base-data matches when
// they equal a stored value ("Credit Suisse"); loose co-occurrence would
// glue unrelated words into one term and lose schema matches ("gold
// agreement" must split into base-data "gold" + schema term "agreement").
func (s *System) known(phrase string) bool {
	for _, n := range s.model.labels[invidx.Normalize(phrase)].nodes {
		// With DBpedia disabled a phrase known only to DBpedia falls
		// through to the base-data checks.
		if !s.Opt.DisableDBpedia || n.layer != metagraph.LayerDBpedia {
			return true
		}
	}
	if strings.Contains(phrase, " ") {
		return s.Index().ContainsExact(phrase)
	}
	return s.Index().Contains(phrase)
}

// candidates returns the entry points for one term: every metadata node
// carrying the label, plus every base-data column containing the phrase.
// A label's hits are the table's; any other phrase's come from the
// index, a map read for a token or a stored value. Each score adds rk's
// feedback adjustment to the entry point's layer score.
func (s *System) candidates(rk *ranking, ti int, term Term) []EntryPoint {
	label, ok := s.model.labels[invidx.Normalize(term.Text)]
	hits := label.hits
	if !ok {
		hits = s.Index().Hits(term.Text)
	}
	// Sized once for every node and hit, the most it can hold.
	var out []EntryPoint
	if n := len(label.nodes) + len(hits); n > 0 {
		out = make([]EntryPoint, 0, n)
	}
	for _, n := range label.nodes {
		node, layer := n.node, n.layer
		if s.Opt.DisableDBpedia && layer == metagraph.LayerDBpedia {
			continue
		}
		ep := EntryPoint{
			Term:  ti,
			Kind:  KindMetadata,
			Node:  node,
			Layer: layer,
		}
		ep.Score = s.entryScore(layer) + rk.adjustment(ep)
		switch term.Role {
		case RoleGroupBy:
			// Grouping attributes must resolve to a physical column.
			if _, ok := s.resolveColumn(node); !ok {
				continue
			}
		case RoleAggAttr:
			// Aggregation attributes may resolve to a column (sum over
			// it) or to an entity (count its key, Query 4's
			// count(transactions)).
			if _, ok := s.resolveColumn(node); !ok {
				if tbl := s.entryTable(EntryPoint{Kind: KindMetadata, Node: node}); tbl == "" {
					continue
				}
			}
		}
		out = append(out, ep)
	}
	for _, hit := range hits {
		ep := EntryPoint{
			Term:   ti,
			Kind:   KindBaseData,
			Layer:  metagraph.LayerBaseData,
			Table:  hit.Table,
			Column: hit.Column,
			Values: hit.Values,
		}
		ep.Score = s.entryScore(metagraph.LayerBaseData) + rk.adjustment(ep)
		out = append(out, ep)
	}
	if len(out) == 0 {
		return nil // every node filtered out: no candidates, not an empty list
	}
	return out
}

func (s *System) entryScore(layer string) float64 {
	if s.Opt.UniformRanking {
		return 1.0
	}
	return metagraph.LayerScore(layer)
}

// comparisonValueString renders a parsed comparison operand for Filter.
func comparisonValueString(v queryparse.Value) (text string, isDate, isNum bool) {
	switch v.Kind {
	case queryparse.ValDate:
		return v.Date.Format("2006-01-02"), true, false
	case queryparse.ValNumber:
		return v.String(), false, true
	default:
		return v.Text, false, false
	}
}
