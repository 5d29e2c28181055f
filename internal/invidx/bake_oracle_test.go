package invidx

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The bake before it became output-sensitive survives here as the oracle
// for the tables the current bake fills: an a-driven galloping
// intersection into a fresh buffer per stored value, and a grouper that
// hashes (column, raw value) strings. Only the names changed.

// referenceBake returns the hits and cells tables the old bake derived.
func referenceBake(x *Index) (map[string][]ColumnHit, map[string][]uint64) {
	g := newReferenceGrouper(x)
	hits := make(map[string][]ColumnHit, len(x.postings)+len(x.values))
	cells := make(map[string][]uint64, len(x.postings))
	var sorted []uint64
	for tok, list := range x.postings {
		if !isWord(tok) {
			continue
		}
		hits[tok] = g.group(list)
		sorted = append(sorted[:0], list...)
		slices.Sort(sorted)
		cells[tok] = slices.Clone(slices.Compact(sorted))
	}
	for v := range x.values {
		switch words := words(v); {
		case len(words) > 1:
			hits[v] = g.group(referencePhraseCells(x, cells, v, words))
		case len(words) == 1 && words[0] != v:
			if h, ok := hits[words[0]]; ok {
				hits[v] = h
			}
		}
	}
	return hits, cells
}

func referencePhraseCells(x *Index, cells map[string][]uint64, norm string, words []string) []uint64 {
	out := slices.Clone(x.values[norm])
	seen := slices.Clone(out)
	slices.Sort(seen)
	if seen = slices.Compact(seen); len(seen) < len(out) {
		kept := make(map[uint64]bool, len(seen))
		out = slices.DeleteFunc(out, func(c uint64) bool {
			dup := kept[c]
			kept[c] = true
			return dup
		})
	}
	for _, c := range referenceConjunction(cells, words) {
		if _, found := slices.BinarySearch(seen, c); !found {
			out = append(out, c)
		}
	}
	return out
}

func referenceConjunction(cells map[string][]uint64, words []string) []uint64 {
	lists := make([][]uint64, len(words))
	for i, w := range words {
		if lists[i] = cells[w]; len(lists[i]) == 0 {
			return nil
		}
	}
	slices.SortFunc(lists, func(a, b []uint64) int { return len(a) - len(b) })
	out := referenceIntersect(make([]uint64, 0, len(lists[0])), lists[0], lists[1])
	for _, l := range lists[2:] {
		if len(out) == 0 {
			return nil
		}
		out = referenceIntersect(out[:0], out, l)
	}
	return out
}

func referenceIntersect(dst, a, b []uint64) []uint64 {
	for _, c := range a {
		n := 1
		for n < len(b) && b[n-1] < c {
			n *= 2
		}
		i, found := slices.BinarySearch(b[:min(n, len(b))], c)
		if found {
			dst = append(dst, c)
		}
		if b = b[i:]; len(b) == 0 {
			break
		}
	}
	return dst
}

type referenceGrouper struct {
	x     *Index
	gen   uint32
	col   map[uint32]referenceSlot
	seen  map[referenceValue]uint32
	hitOf []int
	ids   []uint32
	n     []int
}

type referenceSlot struct {
	gen uint32
	at  int
}

type referenceValue struct {
	col uint32
	raw string
}

func newReferenceGrouper(x *Index) *referenceGrouper {
	return &referenceGrouper{x: x, col: make(map[uint32]referenceSlot), seen: make(map[referenceValue]uint32)}
}

func (g *referenceGrouper) group(cells []uint64) []ColumnHit {
	if len(cells) == 0 {
		return nil
	}
	g.gen++
	g.hitOf, g.ids, g.n = g.hitOf[:0], g.ids[:0], g.n[:0]
	total := 0
	for _, c := range cells {
		id := uint32(c >> 32)
		slot := g.col[id]
		if slot.gen != g.gen {
			slot = referenceSlot{gen: g.gen, at: len(g.ids)}
			g.col[id] = slot
			g.ids = append(g.ids, id)
			g.n = append(g.n, 0)
		}
		hit := -1
		if v := (referenceValue{id, g.x.rawAt(c)}); g.seen[v] != g.gen {
			g.seen[v] = g.gen
			hit = slot.at
			g.n[hit]++
			total++
		}
		g.hitOf = append(g.hitOf, hit)
	}
	out := make([]ColumnHit, len(g.ids))
	values := make([]string, total)
	for i, id := range g.ids {
		k := g.x.cols[id]
		out[i] = ColumnHit{Table: k.table, Column: k.column, Values: values[:0:g.n[i]]}
		values = values[g.n[i]:]
	}
	for i, c := range cells {
		if hit := g.hitOf[i]; hit >= 0 {
			out[hit].Values = append(out[hit].Values, g.x.rawAt(c))
		}
	}
	return out
}

// isWord reports whether s is exactly one token.
func isWord(s string) bool {
	return s != "" && strings.IndexFunc(s, isSeparator) < 0
}

// CheckBakeAgainstReference fails t unless the hits and cells tables
// equal the old bake's entry for entry. It also checks that the old
// valueTokens bound holds, and that x holds none of what the old bake
// guarded against and the current one no longer handles: a posting key
// that is not one word, a stored value listing a cell twice, or a cell
// past its column's last non-empty row.
func CheckBakeAgainstReference(t testing.TB, x *Index) {
	t.Helper()
	checkCell := func(what string, c uint64) {
		if c&rowMask >= uint64(len(x.rawIDs[c>>32])) {
			t.Fatalf("%s: cell %x lies past its column's raw values", what, c)
		}
	}
	for tok, list := range x.postings {
		if !isWord(tok) {
			t.Fatalf("posting key %q is not one word", tok)
		}
		for _, c := range list {
			checkCell(tok, c)
		}
	}
	for v, list := range x.values {
		if len(slices.Compact(slices.Sorted(slices.Values(list)))) != len(list) {
			t.Fatalf("stored value %q lists a cell twice", v)
		}
		for _, c := range list {
			checkCell(v, c)
		}
	}
	hits, cells := referenceBake(x)
	if len(x.hits) != len(hits) || len(x.cells) != len(cells) {
		t.Fatalf("bake has %d hits and %d cells entries, reference %d and %d",
			len(x.hits), len(x.cells), len(hits), len(cells))
	}
	for k, want := range hits {
		if got, ok := x.hits[k]; !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("hits[%q] = %+v, reference %+v", k, got, want)
		}
	}
	for k, want := range cells {
		if got, ok := x.cells[k]; !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("cells[%q] = %v, reference %v", k, got, want)
		}
	}
	longest := 0
	for v := range x.values {
		longest = max(longest, len(strings.Fields(v)))
	}
	if x.valueTokens != longest {
		t.Fatalf("valueTokens = %d, reference %d", x.valueTokens, longest)
	}
}
