package engine

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"soda/internal/sqlparse"
)

// testDB builds the paper's mini-bank core tables with a handful of rows.
func testDB() *DB {
	db := NewDB()

	parties := db.Create("parties",
		Column{"id", TInt}, Column{"kind", TString})
	individuals := db.Create("individuals",
		Column{"id", TInt}, Column{"firstname", TString},
		Column{"lastname", TString}, Column{"salary", TFloat},
		Column{"birthday", TDate})
	organizations := db.Create("organizations",
		Column{"id", TInt}, Column{"companyname", TString})
	addresses := db.Create("addresses",
		Column{"id", TInt}, Column{"individual_id", TInt},
		Column{"city", TString}, Column{"street", TString})
	fitx := db.Create("fi_transactions",
		Column{"id", TInt}, Column{"toparty", TInt},
		Column{"amount", TFloat}, Column{"transactiondate", TDate})

	parties.Insert(Int(1), Str("individual"))
	parties.Insert(Int(2), Str("individual"))
	parties.Insert(Int(3), Str("organization"))
	parties.Insert(Int(4), Str("organization"))

	individuals.Insert(Int(1), Str("Sara"), Str("Guttinger"), Float(95000), Date(1981, 4, 23))
	individuals.Insert(Int(2), Str("Hans"), Str("Muller"), Float(1250000), Date(1975, 1, 2))

	organizations.Insert(Int(3), Str("Credit Suisse"))
	organizations.Insert(Int(4), Str("Acme Fund"))

	addresses.Insert(Int(10), Int(1), Str("Zurich"), Str("Bahnhofstrasse 1"))
	addresses.Insert(Int(11), Int(2), Str("Geneva"), Str("Rue du Rhone 5"))

	fitx.Insert(Int(100), Int(3), Float(500), Date(2010, 3, 1))
	fitx.Insert(Int(101), Int(3), Float(1500), Date(2010, 3, 1))
	fitx.Insert(Int(102), Int(4), Float(700), Date(2010, 4, 2))
	fitx.Insert(Int(103), Int(1), Null(), Date(2011, 9, 15))
	return db
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := Exec(db, sel)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT * FROM parties")
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", res.NumRows())
	}
	if !reflect.DeepEqual(res.Columns, []string{"parties.id", "parties.kind"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestWhereFilter(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT * FROM individuals WHERE salary >= 100000")
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.NumRows())
	}
	if res.Rows[0][1].S != "Hans" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestPaperQuery1SaraGuttinger(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT *
		FROM parties, individuals
		WHERE parties.id = individuals.id
		AND individuals.firstName = 'Sara'
		AND individuals.lastName = 'Guttinger'`)
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.NumRows())
	}
	if res.Rows[0][0].I != 1 {
		t.Fatalf("party id = %v", res.Rows[0][0])
	}
}

func TestPaperQuery2SalaryBirthday(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT * FROM individuals
		WHERE individuals.salary >= 90000
		AND individuals.birthday = DATE '1981-04-23'`)
	if res.NumRows() != 1 || res.Rows[0][1].S != "Sara" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPaperQuery3SumGroupBy(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT sum(amount), transactiondate
		FROM fi_transactions GROUP BY transactiondate`)
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", res.NumRows())
	}
	got := map[string]float64{}
	for _, row := range res.Rows {
		if row[0].IsNull() {
			got[row[1].String()] = -1 // marker for the all-NULL group
			continue
		}
		got[row[1].String()] = row[0].F
	}
	want := map[string]float64{"2010-03-01": 2000, "2010-04-02": 700, "2011-09-15": -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPaperQuery4CountJoinGroupOrder(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT count(fi_transactions.id), companyname
		FROM fi_transactions, organizations
		WHERE fi_transactions.toParty = organizations.id
		GROUP BY organizations.companyname
		ORDER BY count(fi_transactions.id) DESC`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	if res.Rows[0][1].S != "Credit Suisse" || res.Rows[0][0].I != 2 {
		t.Fatalf("top row = %v", res.Rows[0])
	}
	if res.Rows[1][1].S != "Acme Fund" || res.Rows[1][0].I != 1 {
		t.Fatalf("second row = %v", res.Rows[1])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT individuals.firstname, addresses.city
		FROM parties, individuals, addresses
		WHERE parties.id = individuals.id
		AND addresses.individual_id = individuals.id
		AND addresses.city = 'Zurich'`)
	if res.NumRows() != 1 || res.Rows[0][0].S != "Sara" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCrossJoinWhenNoCondition(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT * FROM parties, organizations")
	if res.NumRows() != 8 { // 4 x 2
		t.Fatalf("rows = %d, want 8", res.NumRows())
	}
}

func TestLikeOperator(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT companyname FROM organizations WHERE companyname LIKE '%suisse%'")
	if res.NumRows() != 1 || res.Rows[0][0].S != "Credit Suisse" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT firstname FROM individuals WHERE firstname LIKE '_ara'")
	if res.NumRows() != 1 {
		t.Fatalf("underscore wildcard: rows = %v", res.Rows)
	}
}

func TestOrPredicate(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT firstname FROM individuals
		WHERE firstname = 'Sara' OR firstname = 'Hans'`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestNullSemantics(t *testing.T) {
	db := testDB()
	// amount = NULL row must not match any comparison.
	res := mustExec(t, db, "SELECT id FROM fi_transactions WHERE amount > 0")
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (NULL row excluded)", res.NumRows())
	}
	res = mustExec(t, db, "SELECT id FROM fi_transactions WHERE amount IS NULL")
	if res.NumRows() != 1 || res.Rows[0][0].I != 103 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM fi_transactions WHERE NOT (amount > 0)")
	if res.NumRows() != 0 {
		t.Fatalf("NOT over NULL must stay unknown; rows = %d", res.NumRows())
	}
}

func TestCountStarVsCountColumn(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT count(*), count(amount) FROM fi_transactions")
	if res.Rows[0][0].I != 4 || res.Rows[0][1].I != 3 {
		t.Fatalf("counts = %v", res.Rows[0])
	}
}

func TestAggregatesMinMaxAvg(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT min(amount), max(amount), avg(amount) FROM fi_transactions")
	row := res.Rows[0]
	if row[0].F != 500 || row[1].F != 1500 {
		t.Fatalf("min/max = %v", row)
	}
	if row[2].F < 899 || row[2].F > 901 {
		t.Fatalf("avg = %v, want 900", row[2])
	}
}

func TestGlobalAggregateOnEmptyResult(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT count(*) FROM parties WHERE id > 1000")
	if res.NumRows() != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT sum(amount) FROM fi_transactions WHERE id > 1000")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("sum over empty should be NULL, got %v", res.Rows[0][0])
	}
}

func TestIntegerSumStaysInt(t *testing.T) {
	db := NewDB()
	tbl := db.Create("nums", Column{"v", TInt})
	tbl.Insert(Int(1))
	tbl.Insert(Int(2))
	res := mustExec(t, db, "SELECT sum(v) FROM nums")
	if res.Rows[0][0].Kind != KInt || res.Rows[0][0].I != 3 {
		t.Fatalf("sum = %+v", res.Rows[0][0])
	}
}

func TestOrderByColumnAscDesc(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT firstname FROM individuals ORDER BY firstname")
	if res.Rows[0][0].S != "Hans" {
		t.Fatalf("asc order = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT firstname FROM individuals ORDER BY firstname DESC")
	if res.Rows[0][0].S != "Sara" {
		t.Fatalf("desc order = %v", res.Rows)
	}
}

func TestOrderByWithNulls(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT id, amount FROM fi_transactions ORDER BY amount")
	last := res.Rows[res.NumRows()-1]
	if !last[1].IsNull() {
		t.Fatalf("NULL should sort last ascending: %v", res.Rows)
	}
}

func TestLimit(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT id FROM fi_transactions ORDER BY id LIMIT 2")
	if res.NumRows() != 2 || res.Rows[0][0].I != 100 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM fi_transactions LIMIT 0")
	if res.NumRows() != 0 {
		t.Fatalf("limit 0 rows = %d", res.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT DISTINCT kind FROM parties")
	if res.NumRows() != 2 {
		t.Fatalf("distinct rows = %d, want 2", res.NumRows())
	}
}

func TestTableAliases(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT a.city FROM addresses a, individuals i
		WHERE a.individual_id = i.id AND i.firstname = 'Sara'`)
	if res.NumRows() != 1 || res.Rows[0][0].S != "Zurich" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, `SELECT a.id, b.id FROM parties a, parties b
		WHERE a.id = b.id`)
	if res.NumRows() != 4 {
		t.Fatalf("self join rows = %d, want 4", res.NumRows())
	}
}

func TestDuplicateTableWithoutAliasFails(t *testing.T) {
	db := testDB()
	sel := sqlparse.MustParse("SELECT * FROM parties, parties")
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("duplicate unaliased table should fail")
	}
}

func TestErrorsUnknownTableColumn(t *testing.T) {
	db := testDB()
	for _, sql := range []string{
		"SELECT * FROM nope",
		"SELECT nope FROM parties",
		"SELECT id FROM parties, individuals", // ambiguous
		"SELECT parties.nope FROM parties",
		"SELECT nope.id FROM parties",
	} {
		sel := sqlparse.MustParse(sql)
		if _, err := Exec(db, sel); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestAggregateWithStarFails(t *testing.T) {
	db := testDB()
	sel := sqlparse.MustParse("SELECT *, count(*) FROM parties")
	if _, err := Exec(db, sel); err == nil {
		t.Fatal("star with aggregate should fail")
	}
}

func TestDateStringComparison(t *testing.T) {
	db := testDB()
	// Date column compared against a plain string, as the paper's Query 2
	// writes "birthday = 1981-04-23" (string form).
	res := mustExec(t, db, "SELECT firstname FROM individuals WHERE birthday = '1981-04-23'")
	if res.NumRows() != 1 || res.Rows[0][0].S != "Sara" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM fi_transactions WHERE transactiondate >= '2011-01-01'")
	if res.NumRows() != 1 {
		t.Fatalf("range over string date: rows = %v", res.Rows)
	}
}

func TestArithmeticInProjection(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT amount * 2 FROM fi_transactions WHERE id = 100")
	if res.Rows[0][0].F != 1000 {
		t.Fatalf("arith = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT amount / 0 FROM fi_transactions WHERE id = 100")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("div by zero should be NULL, got %v", res.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT lower(firstname), upper(lastname), length(firstname), year(birthday) FROM individuals WHERE id = 1")
	row := res.Rows[0]
	if row[0].S != "sara" || row[1].S != "GUTTINGER" || row[2].I != 4 || row[3].I != 1981 {
		t.Fatalf("row = %v", row)
	}
}

func TestGroupByWithHavingLikeFilterInWhere(t *testing.T) {
	db := testDB()
	// No HAVING in the subset; pre-filtering in WHERE must work with
	// GROUP BY.
	res := mustExec(t, db, `SELECT count(*), toparty FROM fi_transactions
		WHERE amount > 600 GROUP BY toparty ORDER BY toparty`)
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", res.NumRows())
	}
}

func TestResultKeySetSemantics(t *testing.T) {
	db := testDB()
	res := mustExec(t, db, "SELECT kind FROM parties")
	set := res.KeySet()
	if len(set) != 2 {
		t.Fatalf("key set size = %d, want 2 (duplicates collapse)", len(set))
	}
}

func TestRowKeyNumericCoercion(t *testing.T) {
	// Int 1 and Float 1.0 must have the same key (SQL numeric equality).
	a := Result{Rows: [][]Value{{Int(1)}}}
	b := Result{Rows: [][]Value{{Float(1.0)}}}
	if a.RowKey(0) != b.RowKey(0) {
		t.Fatal("int/float keys differ for equal values")
	}
	c := Result{Rows: [][]Value{{Str("1")}}}
	if a.RowKey(0) == c.RowKey(0) {
		t.Fatal("string '1' must not collide with numeric 1")
	}
}

func TestValueCompareCrossKinds(t *testing.T) {
	if c, ok := Compare(Int(2), Float(2.5)); !ok || c != -1 {
		t.Fatalf("int/float compare = %d, %v", c, ok)
	}
	if _, ok := Compare(Str("a"), Int(1)); ok {
		t.Fatal("string/int should be incomparable")
	}
	if c, ok := Compare(Str("2010-01-05"), Date(2010, 1, 10)); !ok || c != -1 {
		t.Fatalf("string/date compare = %d %v", c, ok)
	}
	if c, ok := Compare(Bool(false), Bool(true)); !ok || c != -1 {
		t.Fatalf("bool compare = %d %v", c, ok)
	}
	if _, ok := Compare(Null(), Int(1)); ok {
		t.Fatal("NULL must be incomparable")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"Credit Suisse", "%suisse%", true},
		{"Credit Suisse", "credit%", true},
		{"Credit Suisse", "%credit", false},
		{"Sara", "_ara", true},
		{"Sara", "_a", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestTristateLogic(t *testing.T) {
	if True.And(Unknown) != Unknown || False.And(Unknown) != False {
		t.Fatal("AND truth table")
	}
	if True.Or(Unknown) != True || False.Or(Unknown) != Unknown {
		t.Fatal("OR truth table")
	}
	if Unknown.Not() != Unknown || True.Not() != False {
		t.Fatal("NOT truth table")
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDB()
	tbl := db.Create("t", Column{"a", TInt})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity insert should panic")
		}
	}()
	tbl.Insert(Int(1), Int(2))
}

func TestInsertTypeValidation(t *testing.T) {
	db := NewDB()
	tbl := db.Create("t", Column{"a", TInt})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong type insert should panic")
		}
	}()
	tbl.Insert(Str("x"))
}

func TestIntInsertsIntoFloatColumn(t *testing.T) {
	db := NewDB()
	tbl := db.Create("t", Column{"a", TFloat})
	tbl.Insert(Int(3)) // allowed: widening
	res := mustExec(t, db, "SELECT a FROM t WHERE a = 3")
	if res.NumRows() != 1 {
		t.Fatal("int in float column should compare as numeric")
	}
}

func TestDBTableNamesOrder(t *testing.T) {
	db := testDB()
	names := db.TableNames()
	sort.Strings(names)
	want := []string{"addresses", "fi_transactions", "individuals", "organizations", "parties"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v", names)
	}
	if db.NumTables() != 5 {
		t.Fatalf("NumTables = %d", db.NumTables())
	}
}

func TestDuplicateTableCreatePanics(t *testing.T) {
	db := testDB()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Create should panic")
		}
	}()
	db.Create("parties", Column{"x", TInt})
}

func TestDateOfTruncates(t *testing.T) {
	v := DateOf(time.Date(2010, 5, 1, 13, 45, 0, 0, time.UTC))
	if v.T.Hour() != 0 || v.T.Format("2006-01-02") != "2010-05-01" {
		t.Fatalf("DateOf = %v", v.T)
	}
}

func TestNonBooleanPredicates(t *testing.T) {
	db := testDB()
	for _, c := range []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM parties WHERE 1", 4},
		{"SELECT id FROM parties WHERE 0", 0},
		{"SELECT id FROM parties WHERE 2.5", 4},
		{"SELECT id FROM parties WHERE id - 1", 3},
		{"SELECT id FROM parties WHERE kind", 4},
		{"SELECT id FROM parties WHERE ''", 0},
		{"SELECT id FROM individuals WHERE birthday", 2},
		{"SELECT id FROM fi_transactions WHERE amount", 3}, // NULL is unknown
		{"SELECT id FROM fi_transactions WHERE NOT amount", 0},
		{"SELECT p.id FROM parties p, organizations o WHERE p.id = o.id AND (o.id - 3 OR 0)", 1},
	} {
		if got := mustExec(t, db, c.sql).NumRows(); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, got, c.want)
		}
	}
}

// TestLimitStopsEvaluation: a LIMIT without ORDER BY stops the pull, so a
// value that would fail to evaluate past it never is (as in Postgres and
// MySQL); with ORDER BY every row is evaluated and the error stands.
func TestLimitStopsEvaluation(t *testing.T) {
	db := testDB()
	for sql, want := range map[string]int{
		"SELECT year(kind) FROM parties LIMIT 0": 0,
		// The residual fails only on the pair p.id = o.id, after the first.
		"SELECT p.id FROM parties p, organizations o WHERE p.id <> o.id OR p.kind + 1 > 0 LIMIT 1": 1,
	} {
		if got := mustExec(t, db, sql).NumRows(); got != want {
			t.Errorf("%s: %d rows, want %d", sql, got, want)
		}
	}
	for _, sql := range []string{
		"SELECT year(kind) FROM parties ORDER BY id LIMIT 0",
		"SELECT p.id FROM parties p, organizations o WHERE p.id <> o.id OR p.kind + 1 > 0",
	} {
		if _, err := Exec(db, sqlparse.MustParse(sql)); err == nil {
			t.Errorf("%s: want the year() error", sql)
		}
	}
}
