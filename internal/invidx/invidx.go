// Package invidx implements SODA's inverted index over base data. Per the
// paper (§5.1.2) the index covers only text-typed columns: "the inverted
// index is only built on table columns of data type 'text'". A lookup of a
// keyword returns postings identifying (table, column, row), which the
// lookup step turns into base-data entry points and the filter step turns
// into WHERE conditions (e.g. "Zürich" → addresses.city = 'Zürich').
package invidx

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"soda/internal/backend"
)

// Posting locates one occurrence of a token in the base data.
type Posting struct {
	Table  string
	Column string
	Row    int
}

// ColumnHit aggregates the postings of one phrase within one column: the
// granularity SODA needs to propose a filter condition.
type ColumnHit struct {
	Table  string
	Column string
	// Values are the distinct full column values containing the phrase,
	// in first-seen order (needed to build equality filters).
	Values []string
}

// colKey identifies one text column.
type colKey struct{ table, column string }

func compareCols(a, b colKey) int {
	return cmp.Or(strings.Compare(a.table, b.table), strings.Compare(a.column, b.column))
}

// A cell is one (column, row) location packed as colID<<32 | row, with
// column IDs numbered in (table, column) order: ascending cells are
// postings sorted by table, column and row. Rows fit in 32 bits: Build's
// are row indices of an in-memory table, DecodeIndex caps them at
// codecMaxCount.
const rowMask = 1<<32 - 1

func pack(col uint32, row int) uint64 { return uint64(col)<<32 | uint64(uint32(row)) }

// Index is an inverted index over the text columns of a database.
type Index struct {
	// cols names every column a cell points into, sorted.
	cols []colKey
	// postings holds each token's cells in stored order: the order Hits
	// reports columns and values in, and the order a snapshot keeps.
	postings map[string][]uint64
	// values indexes full normalised column values, for exact phrase
	// lookups ("Credit Suisse" as one term).
	values map[string][]uint64
	// rawValues recovers the original (non-normalised) value of a cell:
	// per column ID, a slice indexed by row number. Rows whose cell was
	// null/empty were never indexed, so their "" entries are never looked
	// up.
	rawValues [][]string
	tokens    int

	// The lookup tables below are derived by bake at the end of Build
	// and DecodeIndex and never change afterwards, so concurrent lookups
	// share them without a lock.
	//
	// hits holds the column hits of every phrase whose normalised form is
	// a token or a stored value: for those, Hits is a map read. cells
	// holds every token's distinct cells, ascending, for the conjunctive
	// path.
	hits  map[string][]ColumnHit
	cells map[string][]uint64
	// valueTokens is the most whitespace-separated tokens any stored
	// value has.
	valueTokens int
}

// rawAt returns the original value behind a cell.
func (x *Index) rawAt(c uint64) string {
	if col, row := x.rawValues[c>>32], int(c&rowMask); row < len(col) {
		return col[row]
	}
	return ""
}

// posting unpacks a cell.
func (x *Index) posting(c uint64) Posting {
	k := x.cols[c>>32]
	return Posting{Table: k.table, Column: k.column, Row: int(c & rowMask)}
}

// unpack returns a cell list as postings, nil for nil.
func (x *Index) unpack(cells []uint64) []Posting {
	if cells == nil {
		return nil
	}
	out := make([]Posting, len(cells))
	for i, c := range cells {
		out[i] = x.posting(c)
	}
	return out
}

// builder fills an index under provisional column IDs, numbered as the
// columns first appear; finish renumbers them in (table, column) order.
// Build and DecodeIndex both go through it, so the two produce deeply
// equal indexes.
type builder struct {
	x    *Index
	ids  map[colKey]uint32
	cols []colKey
}

func newBuilder() *builder {
	return &builder{
		x:   &Index{postings: make(map[string][]uint64), values: make(map[string][]uint64)},
		ids: make(map[colKey]uint32),
	}
}

// col returns the provisional ID of a column.
func (b *builder) col(table, column string) uint32 {
	k := colKey{table, column}
	id, ok := b.ids[k]
	if !ok {
		id = uint32(len(b.cols))
		b.ids[k] = id
		b.cols = append(b.cols, k)
		b.x.rawValues = append(b.x.rawValues, nil)
	}
	return id
}

// setRaw records the original value behind a cell. The slice ends at the
// last non-empty row, so an index built from base data and one decoded
// from a snapshot (which only carries non-empty entries) are deeply
// equal.
func (b *builder) setRaw(col uint32, row int, s string) {
	raws := b.x.rawValues[col]
	for len(raws) <= row {
		raws = append(raws, "")
	}
	raws[row] = s
	b.x.rawValues[col] = raws
}

// finish numbers the columns in (table, column) order, rewrites every
// cell to match, and bakes the lookup tables.
func (b *builder) finish() *Index {
	x := b.x
	order := make([]uint32, len(b.cols))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(i, j uint32) int { return compareCols(b.cols[i], b.cols[j]) })
	renumber := make([]uint64, len(order))
	x.cols = make([]colKey, len(order))
	raws := make([][]string, len(order))
	for id, prov := range order {
		renumber[prov] = uint64(id) << 32
		x.cols[id], raws[id] = b.cols[prov], x.rawValues[prov]
	}
	x.rawValues = raws
	for _, m := range []map[string][]uint64{x.postings, x.values} {
		for _, list := range m {
			for i, c := range list {
				list[i] = renumber[c>>32] | c&rowMask
			}
		}
	}
	x.bake()
	return x
}

// Build indexes every text column of every table in db.
func Build(db *backend.DB) *Index {
	b := newBuilder()
	x := b.x
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		for ci, col := range tbl.Cols {
			if col.Type != backend.TString {
				continue // numeric/date columns are not indexed (§5.1.2)
			}
			id := -1 // assigned at the column's first indexed cell
			for ri, row := range tbl.Rows {
				v := row[ci]
				if v.IsNull() || v.S == "" {
					continue
				}
				if id < 0 {
					id = int(b.col(tbl.Name, col.Name))
				}
				c := pack(uint32(id), ri)
				norm := Normalize(v.S)
				x.values[norm] = append(x.values[norm], c)
				b.setRaw(uint32(id), ri, v.S)
				for _, tok := range Tokenize(v.S) {
					x.postings[tok] = append(x.postings[tok], c)
					x.tokens++
				}
			}
		}
	}
	return b.finish()
}

// bake derives the lookup tables. A token's hits group its own cells; a
// multi-word stored value's hits group its phraseCells. A single-word
// stored value shares its token's entry. The work is one pass over the
// postings plus one intersection per multi-word stored value. It also
// records the longest stored value, in tokens.
func (x *Index) bake() {
	g := newGrouper(x)
	x.hits = make(map[string][]ColumnHit, len(x.postings)+len(x.values))
	x.cells = make(map[string][]uint64, len(x.postings))
	var sorted []uint64
	for tok, list := range x.postings {
		if !isWord(tok) {
			continue // no phrase tokenizes to it (only a decoded index has one)
		}
		x.hits[tok] = g.group(list)
		sorted = append(sorted[:0], list...)
		slices.Sort(sorted)
		x.cells[tok] = slices.Clone(slices.Compact(sorted))
	}
	for v := range x.values {
		x.valueTokens = max(x.valueTokens, len(strings.Fields(v)))
		switch words := words(v); {
		case len(words) > 1:
			x.hits[v] = g.group(x.phraseCells(v, words))
		case len(words) == 1 && words[0] != v:
			if hits, ok := x.hits[words[0]]; ok {
				x.hits[v] = hits
			}
		}
	}
}

// NumPostings returns the total number of (token, posting) pairs, the
// paper's "non-unique records" measure for index size.
func (x *Index) NumPostings() int { return x.tokens }

// NumTerms returns the number of distinct tokens.
func (x *Index) NumTerms() int { return len(x.postings) }

// Terms returns every distinct token, sorted — used by workload
// generators that need realistic base-data keywords.
func (x *Index) Terms() []string {
	out := make([]string, 0, len(x.postings))
	for t := range x.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// LookupToken returns the postings of a single normalised token.
func (x *Index) LookupToken(tok string) []Posting {
	return x.unpack(x.postings[Normalize(tok)])
}

// LookupPhrase finds occurrences of a phrase. A single word matches every
// value containing it as a token. A multi-word phrase matches rows where
// it equals the full column value ("Credit Suisse" = organizations.name)
// *plus* rows where every word occurs in the same column value ("Credit
// Suisse" inside "Credit Suisse Master Agreement") — both interpretations
// must surface so ranking can arbitrate (paper Q3.1 vs Q3.2).
func (x *Index) LookupPhrase(phrase string) []Posting {
	norm := Normalize(phrase)
	words := words(norm)
	switch len(words) {
	case 0:
		return nil
	case 1:
		return x.unpack(x.postings[words[0]])
	}
	if cells := x.phraseCells(norm, words); len(cells) > 0 {
		return x.unpack(cells)
	}
	return nil
}

// Hits groups the postings of a phrase (see LookupPhrase) by column,
// carrying the distinct original values so the filter step can build
// equality predicates. Columns and values keep first-seen order. A phrase
// that normalises to a token or a stored value is answered from the table
// bake filled; any other multi-word phrase intersects its words' cells.
// The returned slices are shared by every caller and must not be modified.
func (x *Index) Hits(phrase string) []ColumnHit {
	norm := Normalize(phrase)
	if hits, ok := x.hits[norm]; ok {
		return hits
	}
	words := words(norm)
	switch len(words) {
	case 0:
		return nil
	case 1:
		return x.hits[words[0]]
	}
	return newGrouper(x).group(x.phraseCells(norm, words))
}

// phraseCells returns the cells a multi-word phrase matches: the cells
// whose value equals it, in stored order, then the other cells holding
// every word, ascending.
func (x *Index) phraseCells(norm string, words []string) []uint64 {
	out := slices.Clone(x.values[norm])
	seen := slices.Clone(out)
	slices.Sort(seen)
	if seen = slices.Compact(seen); len(seen) < len(out) {
		// Only a decoded index can list a posting twice; keep the first.
		kept := make(map[uint64]bool, len(seen))
		out = slices.DeleteFunc(out, func(c uint64) bool {
			dup := kept[c]
			kept[c] = true
			return dup
		})
	}
	for _, c := range x.conjunction(words) {
		if _, found := slices.BinarySearch(seen, c); !found {
			out = append(out, c)
		}
	}
	return out
}

// conjunction returns the cells holding every one of the (two or more)
// words, ascending. It intersects the words' cell lists rarest first and
// stops at the first empty list or intersection.
func (x *Index) conjunction(words []string) []uint64 {
	lists := make([][]uint64, len(words))
	for i, w := range words {
		if lists[i] = x.cells[w]; len(lists[i]) == 0 {
			return nil
		}
	}
	slices.SortFunc(lists, func(a, b []uint64) int { return len(a) - len(b) })
	out := intersect(make([]uint64, 0, len(lists[0])), lists[0], lists[1])
	for _, l := range lists[2:] {
		if len(out) == 0 {
			return nil
		}
		out = intersect(out[:0], out, l)
	}
	return out
}

// intersect appends to dst the elements of a that b holds; a and b are
// ascending, and dst may share a's array. Each element gallops forward
// through b, so the cost grows with len(a) but only logarithmically with
// len(b).
func intersect(dst, a, b []uint64) []uint64 {
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

// grouper folds cells into column hits. Its sets are stamped with a
// per-call generation instead of being cleared, so one grouper serves
// the whole bake in time linear in the cells it is given.
type grouper struct {
	x    *Index
	gen  uint32
	col  map[uint32]colSlot  // column ID → its hit in this call's output
	seen map[colValue]uint32 // (column, raw value) → generation that emitted it
	// Per-call scratch: each cell's hit (-1 for a repeated value), and
	// each hit's column ID and number of distinct values.
	hitOf []int
	ids   []uint32
	n     []int
}

type colSlot struct {
	gen uint32
	at  int
}

type colValue struct {
	col uint32
	raw string
}

func newGrouper(x *Index) *grouper {
	return &grouper{x: x, col: make(map[uint32]colSlot), seen: make(map[colValue]uint32)}
}

// group returns one hit per column in first-seen order, each with its
// distinct raw values in first-seen order; nil for no cells. A first pass
// counts, so the hits and all their values take one exact allocation
// each: the table lives as long as the index.
func (g *grouper) group(cells []uint64) []ColumnHit {
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
			slot = colSlot{gen: g.gen, at: len(g.ids)}
			g.col[id] = slot
			g.ids = append(g.ids, id)
			g.n = append(g.n, 0)
		}
		hit := -1
		if v := (colValue{id, g.x.rawAt(c)}); g.seen[v] != g.gen {
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
		// Capped at its own length, so a caller's append copies instead
		// of writing into the next hit's values.
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

// Contains reports whether the phrase occurs anywhere in the base data.
func (x *Index) Contains(phrase string) bool {
	return len(x.Hits(phrase)) > 0
}

// ContainsExact reports whether the phrase equals a full column value
// somewhere in the base data. The lookup step's longest-combination
// matching uses this for multi-word phrases: "Credit Suisse" is one term
// because it is a stored value, while "gold agreement" splits into the
// base-data word "gold" and the schema term "agreement" (paper Q4.0).
func (x *Index) ContainsExact(phrase string) bool {
	return len(x.values[Normalize(phrase)]) > 0
}

// MaxValueTokens returns the most tokens a stored value has, counted as
// strings.Fields counts the words of its normalised form. A phrase whose
// normalised form has more is no stored value, so ContainsExact is false
// for it.
func (x *Index) MaxValueTokens() int { return x.valueTokens }

// Normalize lower-cases and folds simple diacritics so "Zürich" matches
// "Zurich", mirroring the paper's example where the keyword is written
// both ways.
func Normalize(s string) string {
	if isNormal(s) {
		return s
	}
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		b.WriteRune(foldRune(r))
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// isNormal reports whether Normalize would return s unchanged because it
// is ASCII without upper case and its words are separated by single
// spaces: the common case for lookup phrases, served without allocating.
func isNormal(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', '\t' <= c && c <= '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return false
		}
	}
	return true
}

func foldRune(r rune) rune {
	switch r {
	case 'ä', 'à', 'á', 'â', 'å':
		return 'a'
	case 'ö', 'ò', 'ó', 'ô':
		return 'o'
	case 'ü', 'ù', 'ú', 'û':
		return 'u'
	case 'é', 'è', 'ê', 'ë':
		return 'e'
	case 'î', 'ì', 'í', 'ï':
		return 'i'
	case 'ç':
		return 'c'
	default:
		return r
	}
}

// Tokenize splits a string into normalised word tokens.
func Tokenize(s string) []string {
	return words(Normalize(s))
}

// words splits an already normalised string into its tokens.
func words(norm string) []string {
	return strings.FieldsFunc(norm, isSeparator)
}

// isWord reports whether s is exactly one token.
func isWord(s string) bool {
	return s != "" && strings.IndexFunc(s, isSeparator) < 0
}

func isSeparator(r rune) bool {
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}
