package engine

import (
	"strings"
	"testing"

	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// Error-path coverage: every malformed statement must fail with a
// descriptive error, never panic or return garbage.

func TestExecErrorPaths(t *testing.T) {
	db := testDB()
	cases := []struct {
		sql  string
		want string // substring of the error
		// compile marks errors that depend only on the statement and the
		// schema: Explain reports them too, and they do not wait for a
		// row to reach the offending expression. The others are raised by
		// evaluating a value, which Explain never does for these
		// statements.
		compile bool
	}{
		{"SELECT * FROM parties WHERE nope = 1", "unknown column", true},
		{"SELECT * FROM parties GROUP BY nope", "unknown column", true},
		{"SELECT * FROM parties ORDER BY nope", "unknown column", true},
		{"SELECT id FROM parties HAVING nope > 1", "unknown column", true},
		{"SELECT sum(id, kind) FROM parties", "expects 1 argument", true},
		{"SELECT lower(id, kind) FROM parties", "expects 1 argument", true},
		{"SELECT year(kind) FROM parties", "needs a date", false},
		{"SELECT banana(id) FROM parties", "unknown function", true},
		{"SELECT kind + 1 FROM parties", "non-numeric", false},

		{"SELECT * FROM missing", "engine: unknown table missing", true},
		{"SELECT * FROM parties x, individuals x", "engine: duplicate table name x in FROM (alias needed)", true},
		{"SELECT sum(amount, id) FROM fi_transactions", "engine: aggregate sum expects 1 argument", true},
		{"SELECT sum(amount, id) FROM fi_transactions WHERE amount > 1000000", "engine: aggregate sum expects 1 argument", true},
		{"SELECT lower(id, kind) FROM parties WHERE id > 99", "engine: lower expects 1 argument", true},
		{"SELECT banana(id) FROM parties WHERE id > 99", "engine: unknown function banana", true},
		{"SELECT id FROM parties WHERE id > 99 ORDER BY banana(id)", "engine: unknown function banana", true},
		{"SELECT * FROM parties GROUP BY kind", "SELECT * cannot be combined with aggregation", true},
		{"SELECT * FROM parties WHERE id > 99 HAVING id > 1", "SELECT * cannot be combined with aggregation", true},
		{"SELECT id FROM parties WHERE id > 99 AND count(*) > 1", "aggregate count outside grouping context", true},
		{"SELECT sum(count(*)) FROM parties WHERE id > 99", "aggregate count outside grouping context", true},
	}
	for _, c := range cases {
		sel, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		_, err = Exec(db, sel)
		if err == nil {
			t.Errorf("Exec(%q) should fail", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Exec(%q) error = %q, want substring %q", c.sql, err, c.want)
		}
		_, explainErr := Explain(db, sel)
		switch {
		case c.compile && (explainErr == nil || explainErr.Error() != err.Error()):
			t.Errorf("Explain(%q) error = %v, want Exec's %q", c.sql, explainErr, err)
		case !c.compile && explainErr != nil:
			t.Errorf("Explain(%q) = %v, want a plan: the error is raised by evaluating a value", c.sql, explainErr)
		}
	}
}

func TestExecEmptyFrom(t *testing.T) {
	db := testDB()
	sel := sqlast.NewSelect()
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("empty FROM should fail")
	}
	if _, err := Explain(db, sel); err == nil {
		t.Fatal("Explain with empty FROM should fail")
	}
}

func TestAggregateOutsideGroupingContext(t *testing.T) {
	db := testDB()
	// A non-aggregated query whose WHERE references an aggregate: the
	// engine routes it through grouping only when select/order/having
	// carry aggregates, so a WHERE aggregate must error cleanly.
	sel := sqlparse.MustParse("SELECT id FROM parties WHERE count(*) > 1")
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("aggregate in WHERE should fail")
	}
}

func TestAvgMinMaxEdgeKinds(t *testing.T) {
	db := NewDB()
	tbl := db.Create("t",
		Column{Name: "s", Type: TString},
		Column{Name: "d", Type: TDate})
	tbl.Insert(Str("bravo"), Date(2010, 1, 2))
	tbl.Insert(Str("alpha"), Date(2012, 3, 4))

	res, err := Exec(db, sqlparse.MustParse("SELECT min(s), max(s), min(d), max(d) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].S != "alpha" || row[1].S != "bravo" {
		t.Fatalf("string min/max = %v", row)
	}
	if row[2].T.Year() != 2010 || row[3].T.Year() != 2012 {
		t.Fatalf("date min/max = %v", row)
	}
	// avg over strings: the values are skipped as non-numeric → NULL.
	res, err = Exec(db, sqlparse.MustParse("SELECT avg(s) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		// count>0 but sum contributions skipped: current semantics keep
		// avg of the skipped values at 0/len — accept either NULL or 0.
		if res.Rows[0][0].F != 0 {
			t.Fatalf("avg over strings = %v", res.Rows[0][0])
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL":       Null(),
		"x":          Str("x"),
		"42":         Int(42),
		"2.5":        Float(2.5),
		"2010-01-02": Date(2010, 1, 2),
		"true":       Bool(true),
		"false":      Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("Value.String = %q, want %q", got, want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TString: "string", TInt: "int", TFloat: "float",
		TDate: "date", TBool: "bool",
	} {
		if typ.String() != want {
			t.Errorf("Type.String(%v) = %q", typ, typ.String())
		}
	}
	if !strings.Contains(Type(99).String(), "99") {
		t.Error("unknown type string")
	}
}

func TestDuplicateAliasInFrom(t *testing.T) {
	db := testDB()
	sel := sqlparse.MustParse("SELECT * FROM parties x, individuals x")
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("duplicate alias should fail")
	}
}

func TestQualifiedStarUnknownTable(t *testing.T) {
	db := testDB()
	sel := sqlparse.MustParse("SELECT nope.* FROM parties")
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("unknown table star should fail")
	}
}
