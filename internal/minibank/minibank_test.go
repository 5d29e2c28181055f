package minibank

import (
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/metagraph"
	"soda/internal/pattern"
	"soda/internal/rdf"
	"soda/internal/sqlparse"
)

func TestBuildDeterministic(t *testing.T) {
	w1 := Build(Default())
	w2 := Build(Default())
	if w1.Meta.G.Len() != w2.Meta.G.Len() {
		t.Fatal("metadata graph not deterministic")
	}
	for _, name := range w1.DB.TableNames() {
		if w1.DB.Table(name).NumRows() != w2.DB.Table(name).NumRows() {
			t.Fatalf("table %s row counts differ", name)
		}
	}
}

func TestAllFigure2TablesExist(t *testing.T) {
	w := Build(Default())
	want := []string{
		"parties", "individuals", "organizations", "addresses",
		"transactions", "fi_transactions", "money_transactions",
		"financial_instruments", "securities", "fi_contains_sec",
	}
	for _, name := range want {
		if w.DB.Table(name) == nil {
			t.Errorf("table %s missing from physical DB", name)
		}
		if _, ok := w.Meta.TableName(w.Nodes["tbl:"+name]); !ok {
			t.Errorf("table node for %s missing from metadata graph", name)
		}
	}
}

func TestSaraGuttingerExists(t *testing.T) {
	w := Build(Default())
	res, err := memory.Exec(w.DB, sqlparse.MustParse(
		`SELECT * FROM parties, individuals
		 WHERE parties.id = individuals.id
		 AND individuals.firstname = 'Sara'
		 AND individuals.lastname = 'Guttinger'`))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() < 1 {
		t.Fatal("Sara Guttinger must exist (paper Query 1)")
	}
}

func TestSaraLivesInZurich(t *testing.T) {
	w := Build(Default())
	res, err := memory.Exec(w.DB, sqlparse.MustParse(
		`SELECT addresses.city FROM individuals, addresses
		 WHERE addresses.individual_id = individuals.id
		 AND individuals.lastname = 'Guttinger' AND individuals.firstname = 'Sara'`))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows[0][0].S != "Zürich" {
		t.Fatalf("Sara's address = %v", res.Rows)
	}
}

func TestFigure5LookupCardinalities(t *testing.T) {
	w := Build(Default())
	// "customers": exactly one metadata hit, in the domain ontology.
	hits := w.Meta.LookupLabel("customers")
	if len(hits) != 1 {
		t.Fatalf("customers hits = %d, want 1", len(hits))
	}
	if w.Meta.LayerOf(hits[0]) != metagraph.LayerDomainOntology {
		t.Fatalf("customers layer = %s", w.Meta.LayerOf(hits[0]))
	}
	// "financial instruments": twice, conceptual and logical.
	hits = w.Meta.LookupLabel("financial instruments")
	if len(hits) != 2 {
		t.Fatalf("financial instruments hits = %d, want 2", len(hits))
	}
	layers := map[string]bool{}
	for _, h := range hits {
		layers[w.Meta.LayerOf(h)] = true
	}
	if !layers[metagraph.LayerConceptual] || !layers[metagraph.LayerLogical] {
		t.Fatalf("layers = %v", layers)
	}
	// "Zürich": not in metadata, only in base data.
	if len(w.Meta.LookupLabel("Zürich")) > 0 {
		t.Fatal("Zürich must not be a metadata label")
	}
	if !w.Index.Contains("Zürich") {
		t.Fatal("Zürich must be in the base data index")
	}
	if !w.Index.Contains("Zurich") {
		t.Fatal("diacritic-folded lookup must hit too")
	}
}

func TestCrypticPhysicalNames(t *testing.T) {
	w := Build(Default())
	// "birth date" resolves only through the logical layer (§6.2).
	hits := w.Meta.LookupLabel("birth date")
	if len(hits) != 1 {
		t.Fatalf("birth date hits = %d, want 1", len(hits))
	}
	if w.Meta.LayerOf(hits[0]) != metagraph.LayerLogical {
		t.Fatalf("birth date layer = %s", w.Meta.LayerOf(hits[0]))
	}
	// The physical column is cryptic.
	if len(w.Meta.LookupLabel("birth_dt")) != 1 {
		t.Fatal("physical column label birth_dt should exist")
	}
}

func TestWealthyCustomersFilter(t *testing.T) {
	w := Build(Default())
	m := pattern.NewMatcher(w.Meta.G, metagraph.Patterns())
	bs := m.MatchName(metagraph.PatMetadataFilter, w.Nodes["ont:wealthy"])
	if len(bs) != 1 {
		t.Fatalf("wealthy filter matches = %d, want 1", len(bs))
	}
	op, _ := bs[0].Get("op")
	v, _ := bs[0].Get("v")
	if op.Value() != ">=" || v.Value() != "1000000" {
		t.Fatalf("filter = %s %s", op.Value(), v.Value())
	}
}

func TestInheritancePatternsMatch(t *testing.T) {
	w := Build(Default())
	m := pattern.NewMatcher(w.Meta.G, metagraph.Patterns())
	for _, child := range []string{"tbl:individuals", "tbl:organizations",
		"tbl:fi_transactions", "tbl:money_transactions"} {
		if !m.MatchesName(metagraph.PatInheritanceChild, w.Nodes[child]) {
			t.Errorf("inheritance child pattern should match %s", child)
		}
	}
	for _, parent := range []string{"tbl:parties", "tbl:transactions"} {
		if m.MatchesName(metagraph.PatInheritanceChild, w.Nodes[parent]) {
			t.Errorf("inheritance child pattern matched parent %s", parent)
		}
	}
}

func TestBridgeTablePattern(t *testing.T) {
	w := Build(Default())
	m := pattern.NewMatcher(w.Meta.G, metagraph.Patterns())
	bs := m.MatchName(metagraph.PatBridgeTable, w.Nodes["tbl:fi_contains_sec"])
	distinct := false
	for _, b := range bs {
		c1, _ := b.Get("c1")
		c2, _ := b.Get("c2")
		if c1 != c2 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("fi_contains_sec should match the bridge pattern with distinct columns")
	}
}

func TestTradingVolumeImpliesSum(t *testing.T) {
	w := Build(Default())
	hits := w.Meta.LookupLabel("trading volume")
	if len(hits) != 1 {
		t.Fatalf("trading volume hits = %d", len(hits))
	}
	obj, ok := w.Meta.G.Object(hits[0], rdf.NewIRI(metagraph.PredImpliesAgg))
	if !ok || obj.Value() != "sum" {
		t.Fatalf("implies_agg = %v, %v", obj, ok)
	}
}

func TestTransactionSubtypePartition(t *testing.T) {
	w := Build(Default())
	total := w.DB.Table("transactions").NumRows()
	fi := w.DB.Table("fi_transactions").NumRows()
	money := w.DB.Table("money_transactions").NumRows()
	if fi+money != total {
		t.Fatalf("subtype rows %d+%d != %d (mutually exclusive inheritance)", fi, money, total)
	}
	if fi == 0 || money == 0 {
		t.Fatal("both transaction subtypes must be populated")
	}
}

func TestPartySubtypePartition(t *testing.T) {
	w := Build(Default())
	total := w.DB.Table("parties").NumRows()
	ind := w.DB.Table("individuals").NumRows()
	org := w.DB.Table("organizations").NumRows()
	if ind+org != total {
		t.Fatalf("subtype rows %d+%d != %d", ind, org, total)
	}
}

func TestDBpediaEntriesPresent(t *testing.T) {
	w := Build(Default())
	for _, term := range []string{"client", "company", "stock", "payment"} {
		hits := w.Meta.LookupLabel(term)
		found := false
		for _, h := range hits {
			if w.Meta.LayerOf(h) == metagraph.LayerDBpedia {
				found = true
			}
		}
		if !found {
			t.Errorf("DBpedia entry %q missing", term)
		}
	}
}

func TestCreditSuisseInBaseData(t *testing.T) {
	w := Build(Default())
	hits := w.Index.Hits("Credit Suisse")
	if len(hits) == 0 {
		t.Fatal("Credit Suisse must be findable in base data")
	}
	if hits[0].Table != "organizations" || hits[0].Column != "companyname" {
		t.Fatalf("hit = %+v", hits[0])
	}
}

func TestStatsShape(t *testing.T) {
	w := Build(Default())
	s := w.Meta.Stats()
	if s.PhysicalTables != 10 {
		t.Errorf("physical tables = %d, want 10", s.PhysicalTables)
	}
	if s.ConceptEntities != 5 {
		t.Errorf("conceptual entities = %d, want 5", s.ConceptEntities)
	}
	if s.LogicalEntities != 9 {
		t.Errorf("logical entities = %d, want 9", s.LogicalEntities)
	}
	if s.PhysicalColumns <= s.LogicalAttrs {
		t.Error("physical columns should outnumber logical attributes")
	}
	if s.InheritanceNodes != 2 {
		t.Errorf("inheritance nodes = %d, want 2", s.InheritanceNodes)
	}
}
