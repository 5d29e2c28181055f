package invidx

import (
	"reflect"
	"testing"
	"testing/quick"

	"soda/internal/backend"
)

func testDB() *backend.DB {
	db := backend.NewDB()
	orgs := db.Create("organizations",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "companyname", Type: backend.TString})
	orgs.Insert(backend.Int(1), backend.Str("Credit Suisse"))
	orgs.Insert(backend.Int(2), backend.Str("Acme Fund"))
	orgs.Insert(backend.Int(3), backend.Str("Suisse Re"))

	addr := db.Create("addresses",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "city", Type: backend.TString},
		backend.Column{Name: "zip", Type: backend.TInt})
	addr.Insert(backend.Int(1), backend.Str("Zürich"), backend.Int(8001))
	addr.Insert(backend.Int(2), backend.Str("Geneva"), backend.Int(1201))
	addr.Insert(backend.Int(3), backend.Null(), backend.Int(0))

	deals := db.Create("agreements",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "agreementname", Type: backend.TString})
	deals.Insert(backend.Int(1), backend.Str("Credit Suisse gold agreement"))
	return db
}

func TestLookupSingleToken(t *testing.T) {
	idx := Build(testDB())
	ps := idx.LookupToken("suisse")
	if len(ps) != 3 { // Credit Suisse, Suisse Re, gold agreement
		t.Fatalf("postings = %d, want 3", len(ps))
	}
	if idx.LookupToken("nonexistent") != nil {
		t.Fatal("missing token should return nil")
	}
}

func TestTablesSorted(t *testing.T) {
	want := []string{"addresses", "agreements", "organizations"}
	if got := Build(testDB()).Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tables() = %v, want %v", got, want)
	}
}

func TestDiacriticsFolding(t *testing.T) {
	idx := Build(testDB())
	// "Zurich" must find "Zürich" and vice versa.
	if !idx.Contains("Zurich") {
		t.Fatal("Zurich should match Zürich")
	}
	if !idx.Contains("zürich") {
		t.Fatal("zürich should match too")
	}
}

func TestLookupPhraseFullValue(t *testing.T) {
	idx := Build(testDB())
	ps := idx.LookupPhrase("Credit Suisse")
	// Both interpretations surface: the exact value match first
	// (organizations) and the co-occurrence inside the agreement name
	// second (paper Q3.1 vs Q3.2 ambiguity).
	if len(ps) != 2 || ps[0].Table != "organizations" || ps[1].Table != "agreements" {
		t.Fatalf("postings = %+v", ps)
	}
	if !idx.ContainsExact("Credit Suisse") {
		t.Fatal("ContainsExact should match the stored value")
	}
	if idx.ContainsExact("Suisse gold") {
		t.Fatal("ContainsExact must not match mere co-occurrence")
	}
}

func TestLookupPhraseConjunctiveFallback(t *testing.T) {
	idx := Build(testDB())
	// "Suisse gold" is not a full value anywhere; both words co-occur in
	// the agreement name.
	ps := idx.LookupPhrase("Suisse gold")
	if len(ps) != 1 || ps[0].Table != "agreements" {
		t.Fatalf("postings = %+v", ps)
	}
}

func TestHitsGroupByColumn(t *testing.T) {
	idx := Build(testDB())
	hits := idx.Hits("suisse")
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	byTable := map[string]ColumnHit{}
	for _, h := range hits {
		byTable[h.Table] = h
	}
	org := byTable["organizations"]
	if len(org.Values) != 2 {
		t.Fatalf("org hit = %+v", org)
	}
	if !reflect.DeepEqual(org.Values, []string{"Credit Suisse", "Suisse Re"}) {
		t.Fatalf("org values = %v", org.Values)
	}
	if idx.Hits("nothing-here") != nil {
		t.Fatal("no hits should return nil")
	}
}

func TestNumericColumnsNotIndexed(t *testing.T) {
	idx := Build(testDB())
	// zip codes are TInt: must not be findable.
	if idx.Contains("8001") {
		t.Fatal("numeric column leaked into the inverted index")
	}
}

func TestNullsNotIndexed(t *testing.T) {
	idx := Build(testDB())
	for tok := range map[string]bool{"null": true} {
		if idx.Contains(tok) {
			t.Fatal("NULL value leaked into index")
		}
	}
}

func TestCounts(t *testing.T) {
	idx := Build(testDB())
	if idx.NumTerms() == 0 || idx.NumPostings() < idx.NumTerms() {
		t.Fatalf("terms=%d postings=%d", idx.NumTerms(), idx.NumPostings())
	}
}

// TestMaxValueTokens checks that Build records the longest stored value,
// "Credit Suisse gold agreement".
func TestMaxValueTokens(t *testing.T) {
	if got := Build(testDB()).MaxValueTokens(); got != 4 {
		t.Fatalf("MaxValueTokens = %d, want 4", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Credit-Suisse  gold,agreement")
	want := []string{"credit", "suisse", "gold", "agreement"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
	if Tokenize("") != nil && len(Tokenize("")) != 0 {
		t.Fatal("empty tokenize")
	}
}

func TestNormalizeCollapsesWhitespace(t *testing.T) {
	if Normalize("  Crédit   Suisse ") != "credit suisse" {
		t.Fatalf("Normalize = %q", Normalize("  Crédit   Suisse "))
	}
}

// property: every token of every indexed string value is findable, and
// every posting's raw value round-trips through Hits.
func TestEveryIndexedTokenFindableQuick(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "Zürich", "Geneva"}
	f := func(picks []uint8) bool {
		db := backend.NewDB()
		tbl := db.Create("t", backend.Column{Name: "v", Type: backend.TString})
		var inserted []string
		for _, p := range picks {
			w := words[int(p)%len(words)]
			tbl.Insert(backend.Str(w))
			inserted = append(inserted, w)
		}
		idx := Build(db)
		for _, w := range inserted {
			if !idx.Contains(w) {
				return false
			}
			hits := idx.Hits(w)
			if len(hits) != 1 || hits[0].Table != "t" || hits[0].Column != "v" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// property: LookupPhrase of a multiword phrase returns only postings whose
// raw value contains all words.
func TestPhrasePostingsContainAllWordsQuick(t *testing.T) {
	idx := Build(testDB())
	phrases := []string{"Credit Suisse", "Suisse gold", "gold agreement", "credit gold", "acme fund"}
	f := func(i uint8) bool {
		phrase := phrases[int(i)%len(phrases)]
		words := Tokenize(phrase)
		for _, p := range idx.LookupPhrase(phrase) {
			raw := Normalize(idx.rawOf(p))
			for _, w := range words {
				found := false
				for _, tok := range Tokenize(raw) {
					if tok == w {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
