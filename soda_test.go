package soda

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

var (
	mb    = MiniBank()
	mbSys = NewSystem(mb, Options{})
)

func TestMiniBankWorld(t *testing.T) {
	if mb.Name() != "minibank" {
		t.Fatalf("name = %q", mb.Name())
	}
	if len(mb.TableNames()) != 10 {
		t.Fatalf("tables = %d, want 10 (Figure 2)", len(mb.TableNames()))
	}
	if mb.DB() == nil || mb.Meta() == nil || mb.Index() == nil {
		t.Fatal("world accessors must be non-nil")
	}
	s := mb.Stats()
	if s.PhysicalTables != 10 || s.ConceptEntities != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSearchReturnsRankedResults(t *testing.T) {
	ans, err := mbSys.Search("customers Zürich financial instruments")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complexity != 2 {
		t.Fatalf("complexity = %d, want 2 (Figure 5)", ans.Complexity)
	}
	if len(ans.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(ans.Results))
	}
	for i := 1; i < len(ans.Results); i++ {
		if ans.Results[i].Score > ans.Results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if len(ans.Terms) != 3 {
		t.Fatalf("terms = %v", ans.Terms)
	}
}

func TestResultExecuteAndSnippet(t *testing.T) {
	ans, err := mbSys.Search("Sara Guttinger")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("no results")
	}
	r := ans.Results[0]
	if !strings.Contains(r.SQL, "SELECT") {
		t.Fatalf("SQL = %q", r.SQL)
	}
	rows, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rows.NumRows() == 0 {
		t.Fatal("Sara not found")
	}
	snip, err := r.Snippet()
	if err != nil {
		t.Fatal(err)
	}
	if snip.NumRows() > 20 {
		t.Fatalf("snippet rows = %d, want <= 20", snip.NumRows())
	}
}

func TestRowsString(t *testing.T) {
	ans, err := mbSys.Search("Sara Guttinger")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ans.Results[0].Snippet()
	if err != nil {
		t.Fatal(err)
	}
	out := rows.String()
	if !strings.Contains(out, "Sara") || !strings.Contains(out, "Guttinger") {
		t.Fatalf("table rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != rows.NumRows()+1 {
		t.Fatalf("lines = %d, want header + %d rows", len(lines), rows.NumRows())
	}
}

func TestAnswerExplain(t *testing.T) {
	ans, err := mbSys.Search("wealthy customers")
	if err != nil {
		t.Fatal(err)
	}
	out := ans.Explain()
	for _, want := range []string{"step 1 - lookup", "step 3 - tables", "step 5 - SQL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

// TestExecuteSQLDirect covers the one SQL-execution path end to end:
// ExecuteSQL is ExecuteSQLInContext with no dialect, which reads the
// statement in the System's configured dialect; a named dialect
// overrides it per call; unknown names and unparsable SQL are errors.
func TestExecuteSQLDirect(t *testing.T) {
	mysqlSys := NewSystem(MiniBank(), Options{Dialect: "mysql"})
	// Only string escaping distinguishes the dialects on the way in: MySQL
	// reads backslash as an escape character, the others take it literally.
	const mysqlOnly = `SELECT count(*) FROM individuals WHERE lastname <> 'O\'Neil'`
	const genericOnly = `SELECT count(*) FROM individuals WHERE lastname <> 'O\'`
	cases := []struct {
		name    string
		sys     *System
		dialect string
		sql     string
		wantErr string // substring; "" = must succeed
	}{
		{"configured default, generic", mbSys, "", genericOnly, ""},
		{"configured default, mysql", mysqlSys, "", mysqlOnly, ""},
		{"configured generic rejects mysql escapes", mbSys, "", mysqlOnly, "sql:"},
		{"per-call override", mbSys, "mysql", mysqlOnly, ""},
		{"override beats configured", mysqlSys, "generic", genericOnly, ""},
		{"unknown dialect", mbSys, "oracle", "SELECT count(*) FROM parties", `unknown dialect "oracle"`},
		{"bad SQL", mbSys, "", "SELEC nonsense", "sql:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rows *Rows
			var err error
			if c.dialect == "" {
				rows, err = c.sys.ExecuteSQL(c.sql)
			} else {
				rows, err = c.sys.ExecuteSQLInContext(context.Background(), c.dialect, c.sql)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rows.NumRows() != 1 || rows.Values[0][0].I == 0 {
				t.Fatalf("rows = %+v", rows.Values)
			}
		})
	}
}

func TestParseQueryExposed(t *testing.T) {
	q, err := ParseQuery("sum (amount) group by (currency)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregations) != 1 || q.Aggregations[0].Func != "sum" {
		t.Fatalf("parse = %+v", q)
	}
	if _, err := ParseQuery(""); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestWarehouseWorldViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("warehouse build in -short mode")
	}
	w := Warehouse(WarehouseConfig{})
	s := w.Stats()
	if s.PhysicalTables != 472 || s.PhysicalColumns != 3181 {
		t.Fatalf("warehouse stats = %+v", s)
	}
	sys := NewSystem(w, Options{})
	ans, err := sys.Search("private customers family name")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("no results on the warehouse")
	}
	rows, err := ans.Results[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rows.NumRows() == 0 {
		t.Fatal("no rows")
	}
}

func TestNewWorldCustom(t *testing.T) {
	// Building a custom world from an existing one's parts: index may be
	// nil and gets built.
	w := NewWorld("custom", mb.DB(), mb.Meta(), nil)
	if w.Index() == nil {
		t.Fatal("index should be built on demand")
	}
	sys := NewSystem(w, Options{})
	if _, err := sys.Search("Sara Guttinger"); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedWarning(t *testing.T) {
	// Areas 026 and 168 of the warehouse are separate islands of the join
	// graph: no join path connects an entity of one to one of the other.
	sys := NewSystem(Warehouse(WarehouseConfig{}), Options{})
	ans, err := sys.Search("area 026 entity 02 area 168 entity 01")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ans.Results {
		if r.Disconnected {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a disconnected warning across two islands")
	}
}

func TestFeedbackViaFacade(t *testing.T) {
	sys := NewSystem(mb, Options{})
	// "name" is ambiguous: the ontology reading (1.00) outranks two
	// physical columns (0.70).
	ans, err := sys.Search("name")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) < 2 {
		t.Fatalf("need ambiguity for the feedback test, got %d result(s)", len(ans.Results))
	}
	firstSQL := ans.Results[0].SQL
	// Repeated dislikes on one Result each land on its entry points,
	// although each re-ranked the system since the search.
	for i := 0; i < 4; i++ {
		if err := ans.Results[0].Dislike(); err != nil {
			t.Fatal(err)
		}
	}
	again, err := sys.Search("name")
	if err != nil {
		t.Fatal(err)
	}
	if again.Results[0].SQL == firstSQL {
		t.Fatal("disliked result still ranks first")
	}
	if err := sys.ResetFeedback(); err != nil {
		t.Fatal(err)
	}
	reset, err := sys.Search("name")
	if err != nil {
		t.Fatal(err)
	}
	if reset.Results[0].SQL != firstSQL {
		t.Fatal("reset should restore the default ranking")
	}
}

// entryKeys names a result by the entry points behind it, the identity
// feedback adjusts.
func entryKeys(r *Result) string {
	var b strings.Builder
	for _, e := range r.sol.Entries {
		fmt.Fprintf(&b, "[%d %s %s.%s]", e.Kind, e.Node.Value(), e.Table, e.Column)
	}
	return b.String()
}

// scoreOf returns the score of the result with the given entry points.
func scoreOf(t *testing.T, ans *Answer, keys string) float64 {
	t.Helper()
	for _, r := range ans.Results {
		if entryKeys(r) == keys {
			return r.Score
		}
	}
	t.Fatalf("no result with entry points %s", keys)
	return 0
}

// TestFeedbackLandsOnNamedResult: an answer list can repeat one statement
// under different entry points. A like on the repeat, from a page another
// like has since re-ranked, must adjust the repeat's entry points, not
// those of the first result with the same SQL. Each label is one term, so
// the liked result's score rises by one step (0.25).
func TestFeedbackLandsOnNamedResult(t *testing.T) {
	labels := 0
	for _, label := range mb.meta.Labels() {
		sys := NewSystem(mb, Options{})
		ans, err := sys.Search(label)
		if err != nil {
			continue
		}
		var first, repeat *Result
		seen := map[string]*Result{}
		for _, r := range ans.Results {
			if f, ok := seen[r.SQL]; ok && entryKeys(f) != entryKeys(r) {
				first, repeat = f, r
				break
			}
			if _, ok := seen[r.SQL]; !ok {
				seen[r.SQL] = r
			}
		}
		if repeat == nil {
			continue
		}
		labels++
		t.Run(label, func(t *testing.T) {
			other, err := sys.Search("birth date")
			if err != nil || len(other.Results) == 0 {
				t.Fatalf("unrelated query: %v", err)
			}
			for _, r := range ans.Results {
				if entryKeys(r) == entryKeys(other.Results[0]) {
					t.Fatalf("the unrelated like shares entry points %s with the answer", entryKeys(r))
				}
			}
			if err := other.Results[0].Like(); err != nil {
				t.Fatal(err)
			}
			if err := repeat.Like(); err != nil {
				t.Fatal(err)
			}
			after, err := sys.Search(label)
			if err != nil {
				t.Fatal(err)
			}
			if got := scoreOf(t, after, entryKeys(repeat)) - repeat.Score; math.Abs(got-0.25) > 1e-9 {
				t.Errorf("liked result %s moved %+.3f, want +0.250", entryKeys(repeat), got)
			}
			if got := scoreOf(t, after, entryKeys(first)) - first.Score; got != 0 {
				t.Errorf("first result with the same SQL, %s, moved %+.3f, want 0", entryKeys(first), got)
			}
		})
	}
	if labels == 0 {
		t.Fatal("no MiniBank label's answer repeats a statement under different entry points")
	}
}

// TestSearchRenderedKeepsRenderersApart: the daemon's JSON and a caller's
// own rendering of one query are cached apart, so neither is ever served
// the other's bytes.
func TestSearchRenderedKeepsRenderersApart(t *testing.T) {
	sys := NewSystem(mb, Options{})
	const q = "customers"
	js, _, err := sys.SearchJSONContext(context.Background(), q, SearchOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mine := func(a *Answer) ([]byte, error) { return []byte(fmt.Sprintf("%d results", len(a.Results))), nil }
	for i, wantHit := range []bool{false, true} {
		data, hit, err := sys.SearchRendered(q, SearchOptions{}, mine)
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit || !strings.HasSuffix(string(data), " results") {
			t.Fatalf("SearchRendered call %d: hit=%v data=%q; want hit=%v and its own render", i, hit, data, wantHit)
		}
	}
	again, hit, err := sys.SearchJSONContext(context.Background(), q, SearchOptions{}, nil)
	if err != nil || !hit || string(again) != string(js) {
		t.Fatalf("SearchJSONContext repeat: hit=%v err=%v data=%q; want a hit on %q", hit, err, again, js)
	}
}

// TestKeywordlessAggregateHasNoSolution: "count ()" names no keyword, so
// no entry point and no solution; /search answers no result.
func TestKeywordlessAggregateHasNoSolution(t *testing.T) {
	sys := NewSystem(mb, Options{})
	data, _, err := sys.SearchJSONContext(context.Background(), "count ()", SearchOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"query":"count ()","complexity":1,"terms":null,"results":[]}` + "\n"; string(data) != want {
		t.Fatalf("/search body = %q, want %q", data, want)
	}
	ans, err := sys.Search("count ()")
	if err != nil {
		t.Fatal(err)
	}
	if ex := ans.Explain(); !strings.Contains(ex, "rank and top N: 0 solution(s)") || strings.Contains(ex, "SQL: (none)") {
		t.Fatalf("explain:\n%s", ex)
	}
}

func TestBrowseViaFacade(t *testing.T) {
	info, err := mbSys.Browse("transactions")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.InheritanceChildren) != 2 {
		t.Fatalf("children = %v", info.InheritanceChildren)
	}
	if _, err := mbSys.Browse("nope"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestExplainSQLViaFacade(t *testing.T) {
	out, err := mbSys.ExplainSQL(
		"SELECT * FROM parties, individuals WHERE parties.id = individuals.id")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hash join") {
		t.Fatalf("plan:\n%s", out)
	}
	if _, err := mbSys.ExplainSQL("not sql"); err == nil {
		t.Fatal("bad SQL should error")
	}
}
