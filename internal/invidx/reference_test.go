package invidx

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"soda/internal/backend"
)

// Before the lookup table, every Hits call regrouped raw postings through
// a map[Posting]int intersection. That code survives here verbatim as the
// reference oracle, with three adjustments: posting lists are unpacked
// from the cells the index now stores, the ColumnHit.Rows count is gone,
// and Normalize is its body before the already-normal fast path. The
// tests below require that the baked table and the sorted-cell
// intersection changed the cost of a lookup, not its answer.

// rawOf returns the original value behind a posting.
func (x *Index) rawOf(p Posting) string {
	id, ok := slices.BinarySearchFunc(x.cols, colKey{p.Table, p.Column}, compareCols)
	if !ok {
		return ""
	}
	return x.rawAt(pack(uint32(id), p.Row))
}

// referenceNormalize is Normalize before its already-normal fast path.
func referenceNormalize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		b.WriteRune(foldRune(r))
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// referenceTokenize is the old Tokenize over referenceNormalize.
func referenceTokenize(s string) []string {
	norm := referenceNormalize(s)
	return strings.FieldsFunc(norm, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// referenceLookupPhrase is the old LookupPhrase, verbatim.
func referenceLookupPhrase(x *Index, phrase string) []Posting {
	words := referenceTokenize(phrase)
	if len(words) == 0 {
		return nil
	}
	if len(words) == 1 {
		return x.unpack(x.postings[words[0]])
	}
	seen := make(map[Posting]bool)
	var out []Posting
	for _, p := range x.unpack(x.values[referenceNormalize(phrase)]) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// Intersect postings of all words at (table, column, row) granularity.
	counts := make(map[Posting]int)
	for i, w := range words {
		for _, p := range x.unpack(x.postings[w]) {
			if counts[p] == i { // must have matched all previous words
				counts[p] = i + 1
			}
		}
	}
	var conj []Posting
	for p, c := range counts {
		if c == len(words) && !seen[p] {
			conj = append(conj, p)
		}
	}
	sort.Slice(conj, func(i, j int) bool {
		a, b := conj[i], conj[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Row < b.Row
	})
	return append(out, conj...)
}

// referenceHits is the old Hits, verbatim but for the Rows count.
func referenceHits(x *Index, phrase string) []ColumnHit {
	postings := referenceLookupPhrase(x, phrase)
	if len(postings) == 0 {
		return nil
	}
	type key struct{ table, column string }
	byCol := make(map[key]*ColumnHit)
	var order []key
	for _, p := range postings {
		k := key{p.Table, p.Column}
		h, ok := byCol[k]
		if !ok {
			h = &ColumnHit{Table: p.Table, Column: p.Column}
			byCol[k] = h
			order = append(order, k)
		}
		raw := x.rawOf(p)
		found := false
		for _, v := range h.Values {
			if v == raw {
				found = true
				break
			}
		}
		if !found {
			h.Values = append(h.Values, raw)
		}
	}
	out := make([]ColumnHit, 0, len(order))
	for _, k := range order {
		out = append(out, *byCol[k])
	}
	return out
}

// Exported for the external-package oracle test, which needs
// worlds that import this package.

// StoredValues returns every normalised stored value, sorted.
func StoredValues(x *Index) []string { return slices.Sorted(maps.Keys(x.values)) }

// CheckAgainstReference fails t unless Hits, LookupPhrase, Contains and
// ContainsExact answer every phrase as the reference does.
func CheckAgainstReference(t testing.TB, x *Index, phrases []string) {
	t.Helper()
	for _, ph := range phrases {
		if got, want := x.Hits(ph), referenceHits(x, ph); !reflect.DeepEqual(got, want) {
			t.Fatalf("Hits(%q) = %+v, reference %+v", ph, got, want)
		}
		postings := referenceLookupPhrase(x, ph)
		if got := x.LookupPhrase(ph); !reflect.DeepEqual(got, postings) {
			t.Fatalf("LookupPhrase(%q) = %+v, reference %+v", ph, got, postings)
		}
		// The old Contains and ContainsExact, verbatim.
		if got, want := x.Contains(ph), len(postings) > 0; got != want {
			t.Fatalf("Contains(%q) = %t, reference %t", ph, got, want)
		}
		if got, want := x.ContainsExact(ph), len(x.values[referenceNormalize(ph)]) > 0; got != want {
			t.Fatalf("ContainsExact(%q) = %t, reference %t", ph, got, want)
		}
	}
}

func TestNormalizeMatchesReferenceQuick(t *testing.T) {
	// Idempotence lets callers key tables by normalised phrases.
	f := func(s string) bool {
		n := Normalize(s)
		return n == referenceNormalize(s) && Normalize(n) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", " ", "a", "a b", "a  b", " a", "a ", "a\tb", "Zürich", "a_b-c", "ZÜRICH gold", "\x00a\x1f"} {
		if Normalize(s) != referenceNormalize(s) {
			t.Fatalf("Normalize(%q) = %q, reference %q", s, Normalize(s), referenceNormalize(s))
		}
	}
}

// randomWorld builds a small database from a vocabulary with diacritics
// and punctuation, so cells repeat words, share words across columns and
// tables, and equal each other.
func randomWorld(rng *rand.Rand) (*backend.DB, []string) {
	vocab := []string{"gold", "Gold", "credit", "Crédit", "suisse", "Zürich", "zurich", "fund", "a001", "t6", "td", "x"}
	seps := []string{" ", " ", "_", "-", ", "}
	cell := func() string {
		n := 1 + rng.Intn(4)
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
			b.WriteString(vocab[rng.Intn(len(vocab))])
		}
		return b.String()
	}
	db := backend.NewDB()
	var cells []string
	for ti := 0; ti < 1+rng.Intn(3); ti++ {
		cols := []backend.Column{{Name: "id", Type: backend.TInt}}
		for ci := 0; ci < 1+rng.Intn(3); ci++ {
			cols = append(cols, backend.Column{Name: fmt.Sprintf("c%d", ci), Type: backend.TString})
		}
		tbl := db.Create(fmt.Sprintf("t%d", ti), cols...)
		for r := 0; r < rng.Intn(12); r++ {
			row := []backend.Value{backend.Int(int64(r))}
			for range cols[1:] {
				switch rng.Intn(6) {
				case 0:
					row = append(row, backend.Null())
				case 1:
					row = append(row, backend.Str(""))
				default:
					c := cell()
					cells = append(cells, c)
					row = append(row, backend.Str(c))
				}
			}
			tbl.Insert(row...)
		}
	}
	return db, append(vocab, cells...)
}

// randomPhrase joins a few vocabulary words (possibly repeated, possibly
// absent from the data) by space or underscore, in either case.
func randomPhrase(rng *rand.Rand, vocab []string) string {
	words := append([]string{"absent", "nowhere"}, vocab...)
	n := 1 + rng.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
		if rng.Intn(4) == 0 {
			parts[i] = strings.ToUpper(parts[i])
		}
	}
	return strings.Join(parts, []string{" ", "_", "  "}[rng.Intn(3)])
}

// property: on random databases, every lookup answers as the reference
// does — for every token and stored value, for every cell as written, and
// for random phrases — and the baked tables equal the old bake's.
func TestLookupMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, vocab := randomWorld(rng)
		idx := Build(db)
		phrases := append(append(idx.Terms(), StoredValues(idx)...), vocab...)
		for i := 0; i < 40; i++ {
			phrases = append(phrases, randomPhrase(rng, vocab))
		}
		CheckAgainstReference(t, idx, phrases)
		CheckBakeAgainstReference(t, idx)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
