package engine

import (
	"context"
	"fmt"
	"strings"

	"soda/internal/sqlast"
)

// Plan describes how the engine executes a statement: per-relation
// filter pushdown, the join order with strategies, residual predicates and
// the post-processing pipeline. It is the engine's EXPLAIN — useful both
// for tests that pin planner behaviour and for the §5.3.2 exploration
// workflow (analysts inspecting what a generated statement will do).
type Plan struct {
	Scans     []ScanStep // in FROM order
	Start     string     // the relation the join starts from
	Joins     []JoinStep
	Residual  []string
	Aggregate bool
	GroupBy   []string
	Having    string
	OrderBy   []string
	Limit     int
	Distinct  bool
}

// ScanStep is one base-table scan with pushed-down filters.
type ScanStep struct {
	Table   string // effective name (alias if present)
	Source  string // underlying table name
	Rows    int    // table cardinality
	Kept    int    // rows the filters keep; the join order goes by this
	Filters []string
}

// JoinStep is one join in execution order.
type JoinStep struct {
	Table    string // the relation joined in
	Strategy string // "hash" or "cross"
	Keys     []string
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("plan:\n")
	for _, s := range p.Scans {
		fmt.Fprintf(&b, "  scan %s", s.Table)
		if s.Source != s.Table {
			fmt.Fprintf(&b, " (%s)", s.Source)
		}
		fmt.Fprintf(&b, " [%d rows, %d kept]", s.Rows, s.Kept)
		if len(s.Filters) > 0 {
			fmt.Fprintf(&b, " filter: %s", strings.Join(s.Filters, " AND "))
		}
		b.WriteByte('\n')
	}
	if len(p.Joins) > 0 {
		fmt.Fprintf(&b, "  start %s\n", p.Start)
	}
	for _, j := range p.Joins {
		fmt.Fprintf(&b, "  %s join %s", j.Strategy, j.Table)
		if len(j.Keys) > 0 {
			fmt.Fprintf(&b, " on %s", strings.Join(j.Keys, ", "))
		}
		b.WriteByte('\n')
	}
	if len(p.Residual) > 0 {
		fmt.Fprintf(&b, "  residual: %s\n", strings.Join(p.Residual, " AND "))
	}
	if p.Aggregate {
		if len(p.GroupBy) > 0 {
			fmt.Fprintf(&b, "  aggregate by %s\n", strings.Join(p.GroupBy, ", "))
		} else {
			b.WriteString("  aggregate (global)\n")
		}
	}
	if p.Having != "" {
		fmt.Fprintf(&b, "  having %s\n", p.Having)
	}
	if p.Distinct {
		b.WriteString("  distinct\n")
	}
	if len(p.OrderBy) > 0 {
		fmt.Fprintf(&b, "  order by %s\n", strings.Join(p.OrderBy, ", "))
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&b, "  limit %d\n", p.Limit)
	}
	return b.String()
}

// Explain returns the plan Exec runs for the statement. It is the same
// compile, the same scans and the same joinOrder — the join order depends
// on how many rows each scan keeps, so the scans are run (the joins are
// not) — and any statement Exec rejects at compile, Explain rejects too.
func Explain(db *DB, sel *sqlast.Select) (*Plan, error) {
	q, err := compile(db, sel, nil)
	if err != nil {
		return nil, err
	}
	if err := q.scan(context.Background()); err != nil {
		return nil, err
	}
	plan := &Plan{
		Residual:  exprStrings(q.residual),
		Aggregate: q.aggregate,
		GroupBy:   exprStrings(sel.GroupBy),
		Limit:     sel.Limit,
		Distinct:  sel.Distinct,
	}
	for _, rel := range q.rels {
		plan.Scans = append(plan.Scans, ScanStep{
			Table:   rel.name,
			Source:  rel.tbl.Name,
			Rows:    rel.tbl.NumRows(),
			Kept:    len(rel.rows),
			Filters: exprStrings(rel.filters),
		})
	}
	start, steps := q.joinOrder()
	plan.Start = q.rels[start].name
	for _, st := range steps {
		step := JoinStep{Table: q.rels[st.rel].name, Strategy: "hash", Keys: exprStrings(st.conds)}
		if st.cross() {
			step.Strategy = "cross"
		}
		plan.Joins = append(plan.Joins, step)
	}
	if sel.Having != nil {
		plan.Having = sel.Having.String()
	}
	for _, o := range sel.OrderBy {
		plan.OrderBy = append(plan.OrderBy, o.String())
	}
	return plan, nil
}

func exprStrings(exprs []sqlast.Expr) []string {
	var out []string
	for _, e := range exprs {
		out = append(out, e.String())
	}
	return out
}
