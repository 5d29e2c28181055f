package core

import (
	"strconv"
	"strings"
	"time"

	"soda/internal/sqlast"
)

// sqlStep implements Step 5 (Figure 4): "we take all the information that
// was collected earlier and combine it into reasonable, executable SQL
// statements" — reasonable meaning the join patterns (foreign keys,
// inheritance) are respected; executable meaning the statement runs on the
// warehouse as-is.
func (s *System) sqlStep(sol *Solution, a *Analysis) {
	// The statement is rendered in the dialect the search asked for;
	// SQLText, Execute and the snippet step all follow it.
	sol.Dialect = a.Dialect
	// Aggregation attributes can pull their own tables in (a pure
	// "sum (amount)" query has no keyword-derived tables yet).
	s.resolveAggregates(sol, a)
	if len(sol.SQLTables) == 0 {
		sol.SQL = nil // nothing to select from
		return
	}

	sel := sqlast.NewSelect()

	// FROM: anchors first, then join-path tables, in discovery order.
	for _, t := range sol.SQLTables {
		sel.From = append(sel.From, sqlast.TableRef{Table: t})
	}

	// WHERE: join conditions first (reasonable SQL shows joins up front,
	// like the paper's Query 1), then filters.
	var conjuncts []sqlast.Expr
	for _, j := range sol.Joins {
		conjuncts = append(conjuncts, &sqlast.Binary{
			Op: sqlast.OpEq,
			L:  &sqlast.ColumnRef{Table: j.LeftTable, Column: j.LeftCol},
			R:  &sqlast.ColumnRef{Table: j.RightTable, Column: j.RightCol},
		})
	}

	filterExprs := make([]sqlast.Expr, 0, len(sol.Filters))
	for _, f := range sol.Filters {
		if e := filterExpr(f); e != nil {
			filterExprs = append(filterExprs, e)
		}
	}
	if a.Query.Disjunctive && len(filterExprs) > 1 {
		// OR connective: user filters combine disjunctively.
		or := filterExprs[0]
		for _, e := range filterExprs[1:] {
			or = &sqlast.Binary{Op: sqlast.OpOr, L: or, R: e}
		}
		conjuncts = append(conjuncts, or)
	} else {
		conjuncts = append(conjuncts, filterExprs...)
	}
	sel.Where = sqlast.AndAll(conjuncts...)

	// SELECT list and grouping.
	switch {
	case len(sol.Aggs) > 0:
		for _, g := range sol.GroupBy {
			ref := &sqlast.ColumnRef{Table: g.Table, Column: g.Column}
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: ref})
			sel.GroupBy = append(sel.GroupBy, ref)
		}
		for _, agg := range sol.Aggs {
			call := &sqlast.FuncCall{Name: agg.Func}
			if agg.Col == nil {
				call.Star = true
			} else {
				call.Args = []sqlast.Expr{&sqlast.ColumnRef{Table: agg.Col.Table, Column: agg.Col.Column}}
			}
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: call})
		}
		if sol.TopN > 0 {
			// Rank groups by the first aggregate (Query 4's ORDER BY
			// count(...) DESC shape).
			first := sel.Items[len(sel.Items)-len(sol.Aggs)].Expr
			sel.OrderBy = []sqlast.OrderItem{{Expr: first, Desc: true}}
			sel.Limit = sol.TopN
		}
	default:
		sel.Items = []sqlast.SelectItem{{Star: true}}
		if sol.TopN > 0 {
			sel.Limit = sol.TopN
		}
	}

	sol.SQL = sel
}

// resolveAggregates fills sol.Aggs and sol.GroupBy from the solution's
// role-tagged entry points, the query's bare count(), and implied
// aggregation measures from the domain ontology ("trading volume" implies
// sum over the classified amount column, §4.4.2).
func (s *System) resolveAggregates(sol *Solution, a *Analysis) {
	for _, e := range sol.Entries {
		term := a.Terms[e.Term]
		switch term.Role {
		case RoleAggAttr:
			if col, ok := s.entryColumn(e); ok {
				c := col
				sol.Aggs = append(sol.Aggs, Agg{Func: term.AggFunc, Col: &c})
				s.ensureTable(sol, col.Table)
			} else if tbl := s.entryTable(e); tbl != "" {
				// count (transactions): counting an entity counts its
				// key column (Query 4 counts fi_transactions.id).
				c := ColRef{Table: tbl, Column: s.keyColumn(tbl)}
				sol.Aggs = append(sol.Aggs, Agg{Func: term.AggFunc, Col: &c})
				s.ensureTable(sol, tbl)
			}
		case RoleGroupBy:
			if col, ok := s.entryColumn(e); ok {
				sol.GroupBy = append(sol.GroupBy, col)
				s.ensureTable(sol, col.Table)
			}
		}
	}

	// Bare count() aggregations.
	for _, agg := range a.Query.Aggregations {
		if len(agg.Attr) == 0 {
			sol.Aggs = append(sol.Aggs, Agg{Func: agg.Func, Col: nil})
		}
	}

	// Implied aggregation from ontology measures, only when the query has
	// ranking or grouping intent and no explicit aggregate.
	if len(sol.Aggs) == 0 && (sol.TopN > 0 || len(sol.GroupBy) > 0) {
		m := s.compiled()
		for _, e := range sol.Entries {
			if e.Kind != KindMetadata {
				continue
			}
			fn := m.impliedAgg[m.node(e.Node)]
			if fn == "" {
				continue
			}
			if col, okc := m.column(e.Node); okc {
				c := col
				sol.Aggs = append(sol.Aggs, Agg{Func: fn, Col: &c})
				s.ensureTable(sol, col.Table)
			}
		}
		// An implied measure with top-N but no explicit grouping groups
		// by the key of the first entity-shaped entry (top 10 trading
		// volume *customer* groups per customer).
		if len(sol.Aggs) > 0 && len(sol.GroupBy) == 0 && sol.TopN > 0 {
			for _, e := range sol.Entries {
				if e.Kind == KindMetadata && m.impliedAgg[m.node(e.Node)] != "" {
					continue
				}
				if tbl := s.entryTable(e); tbl != "" {
					sol.GroupBy = append(sol.GroupBy, ColRef{Table: tbl, Column: s.keyColumn(tbl)})
					break
				}
			}
		}
	}
}

// keyColumn picks the table's key column: "id" when present, otherwise
// the first column. The shape comes from the backend's catalog; an
// unknown table (a catalog-less remote backend) defaults to "id".
func (s *System) keyColumn(table string) string {
	ts, ok := s.Backend.Catalog().Table(table)
	if !ok {
		return "id"
	}
	for _, c := range ts.Columns {
		if c.Name == "id" {
			return "id"
		}
	}
	if len(ts.Columns) > 0 {
		return ts.Columns[0].Name
	}
	return "id"
}

// filterExpr converts a Filter into an AST predicate.
func filterExpr(f Filter) sqlast.Expr {
	col := &sqlast.ColumnRef{Table: f.Col.Table, Column: f.Col.Column}
	if f.Op == "between" {
		lo := literal(f.Value, f.IsDate, f.IsNum)
		hi := literal(f.Value2, f.IsDate, f.IsNum)
		if lo == nil || hi == nil {
			return nil
		}
		return &sqlast.Binary{
			Op: sqlast.OpAnd,
			L:  &sqlast.Binary{Op: sqlast.OpGe, L: col, R: lo},
			R:  &sqlast.Binary{Op: sqlast.OpLe, L: col, R: hi},
		}
	}
	val := literal(f.Value, f.IsDate, f.IsNum)
	if val == nil {
		return nil
	}
	var op sqlast.BinOp
	switch f.Op {
	case "=":
		op = sqlast.OpEq
	case "<>", "!=":
		op = sqlast.OpNe
	case ">":
		op = sqlast.OpGt
	case ">=":
		op = sqlast.OpGe
	case "<":
		op = sqlast.OpLt
	case "<=":
		op = sqlast.OpLe
	case "like":
		op = sqlast.OpLike
		if lit, ok := val.(*sqlast.Literal); ok && lit.Kind == sqlast.LitString &&
			!strings.Contains(lit.S, "%") && !strings.Contains(lit.S, "_") {
			val = sqlast.StringLit("%" + lit.S + "%")
		}
	default:
		return nil
	}
	return &sqlast.Binary{Op: op, L: col, R: val}
}

func literal(v string, isDate, isNum bool) sqlast.Expr {
	switch {
	case isDate:
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			return nil
		}
		return sqlast.DateLit(t)
	case isNum:
		if i, err := strconv.ParseInt(v, 10, 64); err == nil {
			return sqlast.IntLit(i)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil
		}
		if f == float64(int64(f)) {
			return sqlast.IntLit(int64(f))
		}
		return sqlast.FloatLit(f)
	default:
		return sqlast.StringLit(v)
	}
}
