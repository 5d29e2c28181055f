package core

import (
	"context"
	"strings"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/metagraph"
	"soda/internal/minibank"
)

var world = minibank.Build(minibank.Default())

func newSys(t *testing.T, opt Options) *System {
	t.Helper()
	return NewSystem(memory.New(world.DB), world.Meta, world.Index, opt)
}

func search(t *testing.T, sys *System, q string) *Analysis {
	t.Helper()
	a, err := sys.Search(q)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	return a
}

func best(t *testing.T, a *Analysis) *Solution {
	t.Helper()
	if len(a.Solutions) == 0 {
		t.Fatalf("no solutions for %q", a.Query.Raw)
	}
	return a.Solutions[0]
}

func hasTable(sol *Solution, name string) bool {
	for _, tbl := range sol.TableNames() {
		if tbl == name {
			return true
		}
	}
	return false
}

// --- Figure 5: query classification ---------------------------------

func TestFigure5EntryPointCardinalities(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers Zürich financial instruments")
	if len(a.Terms) != 3 {
		t.Fatalf("terms = %d, want 3 (%v)", len(a.Terms), a.Terms)
	}
	counts := []int{len(a.Candidates[0]), len(a.Candidates[1]), len(a.Candidates[2])}
	// "customers" once (domain ontology), "Zürich" once (base data),
	// "financial instruments" twice (conceptual + logical).
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("entry point counts = %v, want [1 1 2]", counts)
	}
	if a.Complexity != 2 {
		t.Fatalf("complexity = %d, want 1x1x2 = 2 (§5.2.2)", a.Complexity)
	}
	if len(a.Solutions) != 2 {
		t.Fatalf("solutions = %d, want 2", len(a.Solutions))
	}
	// Layers per Figure 5.
	if a.Candidates[0][0].Layer != metagraph.LayerDomainOntology {
		t.Errorf("customers layer = %s", a.Candidates[0][0].Layer)
	}
	if a.Candidates[1][0].Kind != KindBaseData || a.Candidates[1][0].Table != "addresses" {
		t.Errorf("Zürich entry = %+v", a.Candidates[1][0])
	}
}

// --- Figure 6: output of the tables step -----------------------------

func TestFigure6TablesOutput(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers Zürich financial instruments")
	want := map[string]bool{
		"parties": true, "individuals": true, "organizations": true,
		"addresses": true, "financial_instruments": true,
		"fi_contains_sec": true, "securities": true,
	}
	// The union over both solutions matches Figure 6's seven tables.
	got := map[string]bool{}
	for _, sol := range a.Solutions {
		for _, tbl := range sol.TableNames() {
			got[tbl] = true
		}
	}
	for tbl := range want {
		if !got[tbl] {
			t.Errorf("Figure 6 table %s missing from tables step output (got %v)", tbl, got)
		}
	}
	for tbl := range got {
		if !want[tbl] {
			t.Errorf("unexpected table %s in tables step output", tbl)
		}
	}
}

// --- Query 1 (§4.4.1): Sara Guttinger --------------------------------

func TestQuery1SaraGuttinger(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "Sara Guttinger")
	sol := best(t, a)
	if !hasTable(sol, "individuals") || !hasTable(sol, "parties") {
		t.Fatalf("tables = %v, want individuals + inheritance parent parties", sol.TableNames())
	}
	// Join parties.id = individuals.id must be present.
	foundJoin := false
	for _, j := range sol.Joins {
		if (j.LeftTable == "individuals" && j.RightTable == "parties") ||
			(j.LeftTable == "parties" && j.RightTable == "individuals") {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatalf("inheritance join missing: %v", sol.Joins)
	}
	sql := sol.SQLText()
	if !strings.Contains(sql, "'Sara'") || !strings.Contains(sql, "'Guttinger'") {
		t.Fatalf("SQL missing filters:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.NumRows() < 1 {
		t.Fatal("Sara Guttinger not found by generated SQL")
	}
}

// --- Query 2 (§4.4.1): salary >= x and birthday ----------------------

func TestQuery2SalaryBirthday(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "salary >= 90000 and birth date = date(1981-04-23)")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "individuals.salary >= 90000") {
		t.Fatalf("salary filter missing:\n%s", sql)
	}
	if !strings.Contains(sql, "individuals.birth_dt = DATE '1981-04-23'") {
		t.Fatalf("birth date filter should resolve to cryptic column birth_dt (§6.2):\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want exactly Sara", res.NumRows())
	}
}

// --- Query 3 (§4.4.2): sum (amount) group by (transaction date) ------

func TestQuery3SumGroupBy(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "sum (amount) group by (transaction date)")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "sum(fi_transactions.amount)") {
		t.Fatalf("sum missing:\n%s", sql)
	}
	if !strings.Contains(sql, "GROUP BY transactions.trade_dt") {
		t.Fatalf("group by transaction date should resolve to transactions.trade_dt:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("aggregation returned no groups")
	}
}

// --- Query 4 (§4.4.2): count (transactions) group by (company name) --

func TestQuery4CountGroupByCompany(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "top 10 count (transactions) group by (company name)")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "count(") {
		t.Fatalf("count missing:\n%s", sql)
	}
	if !strings.Contains(sql, "GROUP BY organizations.companyname") {
		t.Fatalf("group by company name:\n%s", sql)
	}
	if !strings.Contains(sql, "ORDER BY") || !strings.Contains(sql, "DESC") || !strings.Contains(sql, "LIMIT 10") {
		t.Fatalf("top-N ordering missing:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 || res.NumRows() > 10 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

// --- Wealthy customers: metadata-defined filter ----------------------

func TestWealthyCustomersMetadataFilter(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "wealthy customers")
	sol := best(t, a)
	found := false
	for _, f := range sol.Filters {
		if f.Source == "metadata" && f.Col.Column == "salary" && f.Op == ">=" {
			found = true
		}
	}
	if !found {
		t.Fatalf("metadata filter missing: %v", sol.Filters)
	}
	sql := sol.SQLText()
	if !strings.Contains(sql, "individuals.salary >= 1000000") {
		t.Fatalf("wealthy filter not in SQL:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	// Every returned individual must have salary >= 1000000: check count
	// against a direct query.
	if res.NumRows() == 0 {
		t.Fatal("no wealthy customers found; generator should produce some")
	}
}

// --- Zürich filter from base data ------------------------------------

func TestBaseDataFilterZurich(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers Zürich")
	sol := best(t, a)
	var zf *Filter
	for i := range sol.Filters {
		if sol.Filters[i].Source == "basedata" {
			zf = &sol.Filters[i]
		}
	}
	if zf == nil {
		t.Fatalf("base data filter missing: %v", sol.Filters)
	}
	if zf.Col.Table != "addresses" || zf.Col.Column != "city" || zf.Op != "=" || zf.Value != "Zürich" {
		t.Fatalf("filter = %+v", zf)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("no customers in Zürich")
	}
}

// --- Date range over cryptic column ----------------------------------

func TestDateRangeQuery(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "trade date > date(2011-09-01)")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "transactions.trade_dt > DATE '2011-09-01'") {
		t.Fatalf("range predicate:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("no transactions after 2011-09-01; generator spans 2009-2011")
	}
}

func TestBetweenQuery(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "birth date between date(1980-01-01) date(1990-01-01)")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "birth_dt >= DATE '1980-01-01'") ||
		!strings.Contains(sql, "birth_dt <= DATE '1990-01-01'") {
		t.Fatalf("between should desugar:\n%s", sql)
	}
}

// --- Top 10 trading volume customer (implied aggregation, §4.4.2) ----

func TestImpliedAggregationTradingVolume(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "top 10 trading volume customer")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, "sum(fi_transactions.amount)") {
		t.Fatalf("implied sum missing:\n%s", sql)
	}
	if !strings.Contains(sql, "GROUP BY") || !strings.Contains(sql, "LIMIT 10") {
		t.Fatalf("implied grouping/topN missing:\n%s", sql)
	}
	res, err := sys.Execute(context.Background(), sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 || res.NumRows() > 10 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

// --- Ranking: ontology above DBpedia ----------------------------------

func TestRankingPrefersOntologyOverDBpedia(t *testing.T) {
	sys := newSys(t, Options{})
	// "client" is a DBpedia entry; "customers" the ontology concept. A
	// query matching both should rank the ontology solution first.
	a := search(t, sys, "customer")
	if len(a.Solutions) < 1 {
		t.Fatal("no solutions")
	}
	first := a.Solutions[0].Entries[0]
	if first.Layer != metagraph.LayerDomainOntology {
		t.Fatalf("best entry layer = %s, want domain ontology", first.Layer)
	}
	if len(a.Solutions) > 1 {
		for _, sol := range a.Solutions[1:] {
			if sol.Score > a.Solutions[0].Score {
				t.Fatal("solutions not sorted by score")
			}
		}
	}
}

func TestUniformRankingAblation(t *testing.T) {
	sys := newSys(t, Options{UniformRanking: true})
	a := search(t, sys, "customer")
	for _, sol := range a.Solutions {
		if sol.Score != 1.0 {
			t.Fatalf("uniform ranking score = %f", sol.Score)
		}
	}
}

// --- DBpedia ablation --------------------------------------------------

func TestDisableDBpediaAblation(t *testing.T) {
	with := newSys(t, Options{})
	without := newSys(t, Options{DisableDBpedia: true})
	aWith := search(t, with, "client")
	aWithout, err := without.Search("client")
	// "client" exists only in DBpedia: with DBpedia it resolves, without
	// it the query has no terms and errors or yields nothing.
	if len(aWith.Solutions) == 0 {
		t.Fatal("client should resolve via DBpedia")
	}
	if err == nil && len(aWithout.Solutions) > 0 {
		t.Fatal("client should not resolve with DBpedia disabled")
	}
}

// --- Bridge tables -----------------------------------------------------

func TestBridgeTableDiscovery(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "financial instruments securities")
	sol := best(t, a)
	if !hasTable(sol, "fi_contains_sec") {
		t.Fatalf("bridge table missing: %v", sol.TableNames())
	}
	bridgeJoins := 0
	for _, j := range sol.Joins {
		if j.Via == "bridge" {
			bridgeJoins++
		}
	}
	if bridgeJoins != 2 {
		t.Fatalf("bridge joins = %d, want 2: %v", bridgeJoins, sol.Joins)
	}
}

func TestBridgeAblation(t *testing.T) {
	sys := newSys(t, Options{DisableBridges: true})
	a := search(t, sys, "financial instruments securities")
	sol := best(t, a)
	if hasTable(sol, "fi_contains_sec") {
		t.Fatalf("bridge table present despite ablation: %v", sol.TableNames())
	}
	// Without the bridge the two tables cannot be connected.
	if !sol.Disconnected {
		t.Fatal("solution should be flagged disconnected without bridges")
	}
}

// --- Execution and snippets ---------------------------------------------

func TestSnippetLimit(t *testing.T) {
	sys := newSys(t, Options{SnippetRows: 5})
	a := search(t, sys, "customers")
	sol := best(t, a)
	res, err := sys.Snippet(sol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() > 5 {
		t.Fatalf("snippet rows = %d, want <= 5", res.NumRows())
	}
}

func TestGeneratedSQLAlwaysReparses(t *testing.T) {
	sys := newSys(t, Options{})
	queries := []string{
		"Sara Guttinger",
		"customers Zürich financial instruments",
		"wealthy customers",
		"sum (amount) group by (transaction date)",
		"top 10 count (transactions) group by (company name)",
		"salary >= 100000",
		"trade date > date(2011-09-01)",
		"private customers family name",
		"customers names",
		"top 10 trading volume customer",
	}
	for _, q := range queries {
		a := search(t, sys, q)
		for _, sol := range a.Solutions {
			if sol.SQL == nil {
				continue
			}
			if _, err := sys.Execute(context.Background(), sol); err != nil {
				t.Errorf("query %q: generated SQL failed: %v\n%s", q, err, sol.SQLText())
			}
		}
	}
}

// --- Misc pipeline behaviours -------------------------------------------

func TestUnknownWordsIgnored(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers xyzzy Zürich")
	found := false
	for _, ig := range a.Ignored {
		if ig == "xyzzy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unknown word not ignored: %v", a.Ignored)
	}
	if len(a.Terms) != 2 {
		t.Fatalf("terms = %d, want 2", len(a.Terms))
	}
}

// A comparison after a group of only unknown words has no term to apply
// to: it is ignored, not attached to the previous group's term.
func TestComparisonAfterUnknownGroupIgnored(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "salary > 50000 xyzzy < 7")
	sql := best(t, a).SQLText()
	if !strings.Contains(sql, "individuals.salary > 50000") || strings.Contains(sql, "< 7") {
		t.Fatalf("want only the salary comparison:\n%s", sql)
	}
	ignored := strings.Join(a.Ignored, "|")
	if !strings.Contains(ignored, "xyzzy") || !strings.Contains(ignored, "operator <") {
		t.Fatalf("ignored = %v, want xyzzy and operator <", a.Ignored)
	}
}

func TestLongestCombinationPreferred(t *testing.T) {
	sys := newSys(t, Options{})
	// "private customers" must match as one term, not "private" +
	// "customers".
	a := search(t, sys, "private customers")
	if len(a.Terms) != 1 || a.Terms[0].Text != "private customers" {
		t.Fatalf("terms = %+v", a.Terms)
	}
}

func TestTopNSolutionsCapped(t *testing.T) {
	sys := newSys(t, Options{TopN: 1})
	a := search(t, sys, "customers Zürich financial instruments")
	if len(a.Solutions) != 1 {
		t.Fatalf("solutions = %d, want 1", len(a.Solutions))
	}
}

func TestDisjunctiveQueryBuildsOr(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "Zürich or Geneva")
	sol := best(t, a)
	sql := sol.SQLText()
	if !strings.Contains(sql, " OR ") {
		t.Fatalf("OR missing from SQL:\n%s", sql)
	}
}

func TestExplainTrace(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers Zürich financial instruments")
	out := Explain(a)
	for _, want := range []string{
		"step 1 - lookup (complexity 2)",
		"Domain ontology",
		"Basedata",
		"step 3 - tables",
		"step 5 - SQL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

func TestTimingsRecorded(t *testing.T) {
	sys := newSys(t, Options{})
	a := search(t, sys, "customers")
	if a.Timings.Total() <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestSearchParseError(t *testing.T) {
	sys := newSys(t, Options{})
	if _, err := sys.Search(""); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestEntryPointDescribe(t *testing.T) {
	e := EntryPoint{Kind: KindBaseData, Table: "addresses", Column: "city"}
	if e.Describe() != "addresses.city (Basedata)" {
		t.Fatalf("describe = %q", e.Describe())
	}
}

func TestMaxSolutionsCap(t *testing.T) {
	sys := newSys(t, Options{MaxSolutions: 2, TopN: 100})
	a := search(t, sys, "customers Zürich financial instruments")
	if len(a.Solutions) > 2 {
		t.Fatalf("solutions = %d, cap 2", len(a.Solutions))
	}
}

// --- Per-step allocation counts ----------------------------------------

// TestCountAllocsFillsEveryStep pins what benchmark/ledger.go reads: with
// CountAllocs on, a pipeline run reports one count per step it ran; with
// it off, or when the answer cache served the search, it reports none.
func TestCountAllocsFillsEveryStep(t *testing.T) {
	const q = "customers Zürich financial instruments"
	for _, snippets := range []bool{false, true} {
		want := []string{"lookup", "rank", "tables", "filters", "sqlgen"}
		if snippets {
			want = append(want, "snippet")
		}
		sys := newSys(t, Options{CacheSize: -1, Parallelism: 1})
		a := searchWith(t, sys, q, SearchOptions{Snippets: snippets, CountAllocs: true})
		if len(a.StepAllocs) != len(want) {
			t.Errorf("snippets=%v: StepAllocs = %v, want exactly the steps %v", snippets, a.StepAllocs, want)
		}
		for _, step := range want {
			if a.StepAllocs[step] == 0 {
				t.Errorf("snippets=%v: step %q counted no allocations on a cold search: %v", snippets, step, a.StepAllocs)
			}
		}
	}

	sys := newSys(t, Options{})
	if a := searchWith(t, sys, q, SearchOptions{}); a.StepAllocs != nil {
		t.Errorf("CountAllocs off: StepAllocs = %v, want nil", a.StepAllocs)
	}
	// That search filled the cache; a hit runs no step, so it counts none.
	if a := searchWith(t, sys, q, SearchOptions{CountAllocs: true}); a.StepAllocs != nil {
		t.Errorf("cache hit: StepAllocs = %v, want nil", a.StepAllocs)
	}
}
