package engine

import (
	"reflect"
	"strings"
	"testing"

	"soda/internal/sqlparse"
)

func TestExplainPushdownAndHashJoin(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		`SELECT * FROM parties, individuals
		 WHERE parties.id = individuals.id AND individuals.firstname = 'Sara'`))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scans) != 2 {
		t.Fatalf("scans = %d", len(plan.Scans))
	}
	// The filter pushes down to the individuals scan.
	var indScan *ScanStep
	for i := range plan.Scans {
		if plan.Scans[i].Table == "individuals" {
			indScan = &plan.Scans[i]
		}
	}
	if indScan == nil || len(indScan.Filters) != 1 {
		t.Fatalf("individuals scan = %+v", indScan)
	}
	if len(plan.Joins) != 1 || plan.Joins[0].Strategy != "hash" {
		t.Fatalf("joins = %+v", plan.Joins)
	}
	if len(plan.Joins[0].Keys) != 1 {
		t.Fatalf("join keys = %v", plan.Joins[0].Keys)
	}
}

func TestExplainCrossJoinWhenNoCondition(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse("SELECT * FROM parties, organizations"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Joins) != 1 || plan.Joins[0].Strategy != "cross" {
		t.Fatalf("joins = %+v", plan.Joins)
	}
}

func TestExplainResidualOr(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		`SELECT * FROM parties, individuals
		 WHERE parties.id = individuals.id OR individuals.salary > 0`))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Residual) != 1 {
		t.Fatalf("residual = %v", plan.Residual)
	}
}

func TestExplainAggregatePipeline(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		`SELECT toparty, sum(amount) FROM fi_transactions
		 GROUP BY toparty HAVING sum(amount) > 100
		 ORDER BY sum(amount) DESC LIMIT 5`))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Aggregate || len(plan.GroupBy) != 1 {
		t.Fatalf("aggregate = %v groupby = %v", plan.Aggregate, plan.GroupBy)
	}
	if plan.Having == "" || plan.Limit != 5 || len(plan.OrderBy) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	out := plan.String()
	for _, want := range []string{"scan fi_transactions", "aggregate by", "having", "order by", "limit 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB()
	for _, sql := range []string{
		"SELECT * FROM missing",
		"SELECT nope FROM parties",
	} {
		if _, err := Explain(db, sqlparse.MustParse(sql)); err == nil {
			t.Errorf("Explain(%q) should fail", sql)
		}
	}
}

func TestExplainMatchesExecJoinChoice(t *testing.T) {
	// Explain's join order simulation must agree with Exec on strategy:
	// this query's three relations are all hash-joinable.
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		`SELECT * FROM parties, individuals, addresses
		 WHERE parties.id = individuals.id AND addresses.individual_id = individuals.id`))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Joins {
		if j.Strategy != "hash" {
			t.Fatalf("join %s strategy = %s, want hash", j.Table, j.Strategy)
		}
	}
}

// The join order goes by the rows each scan keeps, not by table
// cardinality: a selective filter on the largest table makes it the start.
// Exec walks the same joinOrder, so these are the steps it takes.
func TestExplainJoinOrderFollowsScannedRows(t *testing.T) {
	db := testDB()
	cases := []struct {
		name, sql string
		kept      map[string]int
		steps     []string
	}{
		{
			name: "three tables, filter on the largest",
			sql: `SELECT * FROM individuals, parties, fi_transactions
			      WHERE parties.id = fi_transactions.toparty AND individuals.id = parties.id
			      AND fi_transactions.amount > 1000`,
			kept:  map[string]int{"individuals": 2, "parties": 4, "fi_transactions": 1},
			steps: []string{"start fi_transactions", "hash parties", "hash individuals"},
		},
		{
			name: "two tables, the filtered side becomes the start",
			sql: `SELECT * FROM individuals, parties
			      WHERE individuals.id = parties.id AND parties.id = 1`,
			kept:  map[string]int{"individuals": 2, "parties": 1},
			steps: []string{"start parties", "hash individuals"},
		},
		{
			name: "cross-join fallback comes last",
			sql: `SELECT * FROM individuals, organizations, parties
			      WHERE parties.id = individuals.id AND parties.id = 1`,
			kept:  map[string]int{"individuals": 2, "organizations": 2, "parties": 1},
			steps: []string{"start parties", "hash individuals", "cross organizations"},
		},
	}
	for _, c := range cases {
		plan, err := Explain(db, sqlparse.MustParse(c.sql))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range plan.Scans {
			if s.Kept != c.kept[s.Table] {
				t.Errorf("%s: scan %s kept %d rows, want %d", c.name, s.Table, s.Kept, c.kept[s.Table])
			}
		}
		steps := []string{"start " + plan.Start}
		for _, j := range plan.Joins {
			steps = append(steps, j.Strategy+" "+j.Table)
		}
		if !reflect.DeepEqual(steps, c.steps) {
			t.Errorf("%s: steps = %v, want %v\n%s", c.name, steps, c.steps, plan)
		}
	}
}
