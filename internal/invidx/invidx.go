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
// postings sorted by table, column and row. Rows fit in 32 bits: they are
// row indices of an in-memory table.
const rowMask = 1<<32 - 1

func pack(col uint32, row int) uint64 { return uint64(col)<<32 | uint64(uint32(row)) }

// Index is an inverted index over the text columns of a database.
type Index struct {
	// cols names every column a cell points into, sorted.
	cols []colKey
	// postings holds each token's cells in scan order: the order Hits
	// reports columns and values in.
	postings map[string][]uint64
	// values indexes full normalised column values, for exact phrase
	// lookups ("Credit Suisse" as one term).
	values map[string][]uint64
	// raws and rawIDs recover the original (non-normalised) value of a
	// cell. A value ID names one (column, raw value) pair: IDs below
	// len(cols) are each column's empty value, the rest are numbered in
	// column and then first-row order. rawIDs holds, per column ID, each
	// row's value ID, up to the column's last non-empty row; raws holds
	// each ID's value.
	raws   []string
	rawIDs [][]uint32
	tokens int

	// The lookup tables below are derived by bake at the end of Build
	// and never change afterwards, so concurrent lookups share them
	// without a lock.
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

// rawID returns the value ID of a cell.
func (x *Index) rawID(c uint64) uint32 { return x.rawIDs[c>>32][c&rowMask] }

// rawAt returns the original value behind a cell.
func (x *Index) rawAt(c uint64) string { return x.raws[x.rawID(c)] }

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

// Build indexes every text column of every table in db.
func Build(db *backend.DB) *Index {
	x := &Index{postings: make(map[string][]uint64), values: make(map[string][]uint64)}
	// Columns are numbered as the scan meets their first non-empty cell;
	// raws holds each one's raw values by row, up to its last non-empty
	// row. finish renumbers them in (table, column) order.
	var cols []colKey
	var raws [][]string
	for _, name := range db.TableNames() {
		tbl := db.Table(name)
		for ci, col := range tbl.Cols {
			if col.Type != backend.TString {
				continue // numeric/date columns are not indexed (§5.1.2)
			}
			id := uint32(len(cols))
			var colRaws []string
			for ri, row := range tbl.Rows {
				v := row[ci]
				if v.IsNull() || v.S == "" {
					continue
				}
				for len(colRaws) < ri {
					colRaws = append(colRaws, "")
				}
				colRaws = append(colRaws, v.S)
				c := pack(id, ri)
				norm := Normalize(v.S)
				x.values[norm] = append(x.values[norm], c)
				for _, tok := range Tokenize(v.S) {
					x.postings[tok] = append(x.postings[tok], c)
					x.tokens++
				}
			}
			if colRaws != nil {
				cols = append(cols, colKey{tbl.Name, col.Name})
				raws = append(raws, colRaws)
			}
		}
	}
	x.finish(cols, raws)
	return x
}

// finish numbers the scanned columns in (table, column) order, rewrites
// every cell to match, numbers the (column, raw value) pairs, and bakes
// the lookup tables.
func (x *Index) finish(cols []colKey, raws [][]string) {
	order := make([]uint32, len(cols))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(i, j uint32) int { return compareCols(cols[i], cols[j]) })
	renumber := make([]uint64, len(order))
	x.cols = make([]colKey, len(order))
	rows := 0
	for id, scanned := range order {
		renumber[scanned] = uint64(id) << 32
		x.cols[id] = cols[scanned]
		rows += len(raws[scanned])
	}
	for _, m := range []map[string][]uint64{x.postings, x.values} {
		for _, list := range m {
			for i, c := range list {
				list[i] = renumber[c>>32] | c&rowMask
			}
		}
	}
	// Each column's value IDs are carved out of one backing array.
	backing := make([]uint32, rows)
	x.rawIDs = make([][]uint32, len(order))
	x.raws = make([]string, len(order))
	// A value's entry holds the last column it was numbered in, so one
	// map serves every column without being cleared.
	type numbered struct{ col, id uint32 }
	ids := make(map[string]numbered)
	for col, scanned := range order {
		colRaws := raws[scanned]
		rowIDs := backing[:len(colRaws):len(colRaws)]
		backing = backing[len(colRaws):]
		for row, s := range colRaws {
			if s == "" {
				rowIDs[row] = uint32(col)
				continue
			}
			v, ok := ids[s]
			if !ok || v.col != uint32(col) {
				v = numbered{uint32(col), uint32(len(x.raws))}
				ids[s] = v
				x.raws = append(x.raws, s)
			}
			rowIDs[row] = v.id
		}
		x.rawIDs[col] = rowIDs
	}
	x.bake()
}

// bake derives the lookup tables. A token's hits group its own cells; a
// multi-word stored value's hits group its phraseCells. A single-word
// stored value shares its token's entry. It also records the longest
// stored value, in tokens.
//
// The work is one pass over the postings plus one intersection and one
// grouping per multi-word stored value, in scratch reused across values,
// so only the tables themselves are allocated. An intersection costs a
// few probes per run of cells that one list holds and the other does not
// (see intersect), and grouping a cell costs two slice reads, since its
// column and its (column, raw value) pair are dense IDs.
func (x *Index) bake() {
	g := newGrouper(x, true)
	x.hits = make(map[string][]ColumnHit, len(x.postings)+len(x.values))
	x.cells = make(map[string][]uint64, len(x.postings))
	var sorted []uint64
	for tok, list := range x.postings {
		x.hits[tok] = g.group(list)
		sorted = append(sorted[:0], list...)
		slices.Sort(sorted)
		x.cells[tok] = slices.Clone(slices.Compact(sorted))
	}
	var sc scratch
	for v := range x.values {
		x.valueTokens = max(x.valueTokens, len(strings.Fields(v)))
		switch words := words(v); {
		case len(words) > 1:
			x.hits[v] = g.group(x.phraseCells(&sc, v, words))
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

// Tables returns the distinct tables of the indexed columns, sorted: every
// table a ColumnHit can name.
func (x *Index) Tables() []string {
	var out []string
	for _, c := range x.cols {
		if len(out) == 0 || out[len(out)-1] != c.table {
			out = append(out, c.table)
		}
	}
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
	var sc scratch
	if cells := x.phraseCells(&sc, norm, words); len(cells) > 0 {
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
	var sc scratch
	cells := x.phraseCells(&sc, norm, words)
	if len(cells) == 0 {
		return nil
	}
	return newGrouper(x, false).group(cells)
}

// scratch holds the buffers phraseCells gathers a phrase's cells in. The
// bake reuses one across every stored value; a lookup starts from an
// empty one.
type scratch struct {
	conj, seen, out []uint64
}

// phraseCells returns the cells a multi-word phrase matches: the cells
// whose value equals it, in scan order, then the other cells holding
// every word, ascending. The result lives in sc's buffers, valid until
// its next use.
func (x *Index) phraseCells(sc *scratch, norm string, words []string) []uint64 {
	sc.conj = x.conjunction(sc.conj[:0], words)
	exact := x.values[norm]
	if len(exact) == 0 {
		return sc.conj
	}
	sc.seen = append(sc.seen[:0], exact...)
	slices.Sort(sc.seen)
	sc.out = append(sc.out[:0], exact...)
	// Both ascending: one merge finds the conjunction's other cells.
	seen := sc.seen
	for _, c := range sc.conj {
		for len(seen) > 0 && seen[0] < c {
			seen = seen[1:]
		}
		if len(seen) == 0 || seen[0] != c {
			sc.out = append(sc.out, c)
		}
	}
	return sc.out
}

// conjunction appends to the empty dst the cells holding every one of the
// (two or more) words, ascending. It intersects the words' cell lists
// rarest first, in place in dst, which it grows once to the rarest
// list's length, and stops at the first empty list or intersection.
func (x *Index) conjunction(dst []uint64, words []string) []uint64 {
	var buf [8][]uint64
	lists := buf[:0]
	for _, w := range words {
		l := x.cells[w]
		if len(l) == 0 {
			return dst
		}
		lists = append(lists, l)
	}
	slices.SortFunc(lists, func(a, b []uint64) int { return len(a) - len(b) })
	dst = intersect(slices.Grow(dst, len(lists[0])), lists[0], lists[1])
	for _, l := range lists[2:] {
		if len(dst) == 0 {
			break
		}
		dst = intersect(dst[:0], dst, l)
	}
	return dst
}

// intersect appends to dst the elements of a that b holds; a and b are
// ascending, and dst may share a's array. It leapfrogs: whichever list is
// behind gallops to the other's head, so the cost grows with the number
// of runs in which the two alternate, each logarithmically in its length,
// and not with the length of either list.
func intersect(dst, a, b []uint64) []uint64 {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[seek(a, b[0]):]
		case b[0] < a[0]:
			b = b[seek(b, a[0]):]
		default:
			dst = append(dst, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return dst
}

// seek returns the index of the first element of s that is not below c,
// given s[0] < c: it gallops in doubling steps past c, then binary-searches
// the last step.
func seek(s []uint64, c uint64) int {
	lo, step := 0, 1
	for lo+step < len(s) && s[lo+step] < c {
		lo += step
		step *= 2
	}
	i, _ := slices.BinarySearch(s[lo+1:min(lo+step, len(s))], c)
	return lo + 1 + i
}

// grouper folds cells into column hits. Its slots are stamped with a
// per-call generation instead of being cleared, so one grouper serves the
// whole bake in time linear in the cells it is given.
type grouper struct {
	x    *Index
	gen  uint32
	col  slots // column ID → its hit in this call's output
	seen slots // value ID → the generation that emitted it
	// Per-call scratch: each cell's hit (-1 for a repeated value), and
	// each hit's column ID and number of distinct values.
	hitOf []int32
	ids   []uint32
	n     []int
}

// slots maps column or value IDs to stamped slots. The bake's grouper
// indexes a slice by the dense ID. A lookup's groups once, so it keeps a
// map: its scratch grows with the cells it groups, never with the index.
type slots struct {
	dense  []slot
	sparse map[uint32]slot
}

type slot struct {
	gen uint32
	at  int32
}

func (s *slots) get(id uint32) slot {
	if s.sparse != nil {
		return s.sparse[id]
	}
	return s.dense[id]
}

func (s *slots) set(id uint32, v slot) {
	if s.sparse != nil {
		s.sparse[id] = v
		return
	}
	s.dense[id] = v
}

// newGrouper returns a grouper for a whole bake (dense) or for one
// lookup.
func newGrouper(x *Index, dense bool) *grouper {
	g := &grouper{x: x}
	if dense {
		g.col.dense = make([]slot, len(x.cols))
		g.seen.dense = make([]slot, len(x.raws))
	} else {
		g.col.sparse = make(map[uint32]slot)
		g.seen.sparse = make(map[uint32]slot)
	}
	return g
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
		col := g.col.get(id)
		if col.gen != g.gen {
			col = slot{gen: g.gen, at: int32(len(g.ids))}
			g.col.set(id, col)
			g.ids = append(g.ids, id)
			g.n = append(g.n, 0)
		}
		hit := int32(-1)
		if v := g.x.rawID(c); g.seen.get(v).gen != g.gen {
			g.seen.set(v, slot{gen: g.gen})
			hit = col.at
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

func isSeparator(r rune) bool {
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}
