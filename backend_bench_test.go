package soda

// BenchmarkBackendExec compares statement execution across execution
// backends on the warehouse corpus: the in-memory reference engine
// versus the same statements rendered to text, shipped over
// database/sql (sodalite, the in-process SQLite stand-in), re-parsed
// and executed against a separately loaded copy. The gap is the price
// of the text round trip plus driver row marshalling — the floor for
// what a real out-of-process warehouse adds.
//
//	go test -bench BackendExec -benchtime 20x

import (
	"context"
	"fmt"
	"testing"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/backend/sqldb"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// backendBenchStatements are representative generated shapes: a filtered
// join, a snippet (an unfiltered join cut at 20 rows), a grouped aggregate
// and a top-N, written against the warehouse's party/order core.
var backendBenchStatements = []struct{ name, sql string }{
	{"filter_join", `SELECT i.id, p.party_kind_cd FROM individual_td i, party_td p WHERE i.id = p.id AND i.salary_amt >= 1000000`},
	{"join_limit", `SELECT o.id, c.currency_cd FROM order_td o, curr_td c WHERE o.curr_id = c.id LIMIT 20`},
	{"group_agg", `SELECT o.curr_id, sum(o.investment_amt) FROM order_td o GROUP BY o.curr_id`},
	{"topn", `SELECT o.party_id, sum(o.investment_amt) FROM order_td o GROUP BY o.party_id ORDER BY sum(o.investment_amt) DESC LIMIT 10`},
}

func BenchmarkBackendExec(b *testing.B) {
	world := Warehouse(WarehouseConfig{})
	mem := memory.New(world.DB())
	sq, err := sqldb.Open("sodalite", ":memory:", sqlast.Generic)
	if err != nil {
		b.Fatal(err)
	}
	defer sq.Close()
	if err := sq.Load(context.Background(), world.DB()); err != nil {
		b.Fatal(err)
	}

	executors := []struct {
		name string
		ex   backend.Executor
	}{{"memory", mem}, {"sqldb_sodalite", sq}}

	for _, tc := range backendBenchStatements {
		sel, err := sqlparse.Parse(tc.sql)
		if err != nil {
			b.Fatalf("%s: %v", tc.name, err)
		}
		var wantRows int
		for _, e := range executors {
			b.Run(fmt.Sprintf("%s/%s", tc.name, e.name), func(b *testing.B) {
				b.ReportAllocs()
				var res *backend.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = e.ex.Exec(context.Background(), sel)
					if err != nil {
						b.Fatal(err)
					}
				}
				// Cross-backend sanity: both executors must agree on the
				// result size (the conformance tests check content).
				if e.name == "memory" {
					wantRows = res.NumRows()
				} else if res.NumRows() != wantRows {
					b.Fatalf("row count diverged: %d vs %d", res.NumRows(), wantRows)
				}
				b.ReportMetric(float64(res.NumRows()), "rows")
			})
		}
	}
}
