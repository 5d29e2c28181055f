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
	nodes := newNodeSlab(sol)

	// FROM: anchors first, then join-path tables, in discovery order.
	sel.From = make([]sqlast.TableRef, len(sol.SQLTables))
	for i, t := range sol.SQLTables {
		sel.From[i] = sqlast.TableRef{Table: t}
	}

	// WHERE: join conditions first (reasonable SQL shows joins up front,
	// like the paper's Query 1), then filters, chained left-deep as
	// sqlast.AndAll would.
	var where sqlast.Expr
	for _, j := range sol.Joins {
		where = nodes.and(where, nodes.binary(sqlast.OpEq,
			nodes.column(j.LeftTable, j.LeftCol), nodes.column(j.RightTable, j.RightCol)))
	}
	var or sqlast.Expr
	for _, f := range sol.Filters {
		e := filterExpr(f, &nodes)
		switch {
		case e == nil:
		case !a.Query.Disjunctive:
			where = nodes.and(where, e)
		case or == nil:
			or = e
		default:
			// OR connective: user filters combine disjunctively.
			or = nodes.binary(sqlast.OpOr, or, e)
		}
	}
	sel.Where = nodes.and(where, or)

	// SELECT list and grouping.
	switch {
	case len(sol.Aggs) > 0:
		sel.Items = make([]sqlast.SelectItem, 0, len(sol.GroupBy)+len(sol.Aggs))
		if len(sol.GroupBy) > 0 {
			sel.GroupBy = make([]sqlast.Expr, 0, len(sol.GroupBy))
		}
		for _, g := range sol.GroupBy {
			ref := nodes.column(g.Table, g.Column)
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: ref})
			sel.GroupBy = append(sel.GroupBy, ref)
		}
		for _, agg := range sol.Aggs {
			call := &sqlast.FuncCall{Name: agg.Func}
			if agg.Col == nil {
				call.Star = true
			} else {
				call.Args = []sqlast.Expr{nodes.column(agg.Col.Table, agg.Col.Column)}
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

// nodeSlab hands out one solution's Binary and ColumnRef nodes from two
// slabs sized before the statement is built. The sizes are upper bounds;
// should one run short, nodes come from the heap, so a miscount costs
// allocations, never output.
type nodeSlab struct {
	bins []sqlast.Binary
	cols []sqlast.ColumnRef
}

// newNodeSlab sizes the slabs for sol's statement: per join an equality
// and two columns; per filter a column and a comparison, two more for a
// BETWEEN; one AND or OR per join and filter; one column per grouping key
// and aggregate.
func newNodeSlab(sol *Solution) nodeSlab {
	nb := 2*len(sol.Joins) + 2*len(sol.Filters)
	for _, f := range sol.Filters {
		if f.Op == "between" {
			nb += 2
		}
	}
	nc := 2*len(sol.Joins) + len(sol.Filters) + len(sol.GroupBy) + len(sol.Aggs)
	return nodeSlab{bins: make([]sqlast.Binary, nb), cols: make([]sqlast.ColumnRef, nc)}
}

func (n *nodeSlab) binary(op sqlast.BinOp, l, r sqlast.Expr) *sqlast.Binary {
	if len(n.bins) == 0 {
		return &sqlast.Binary{Op: op, L: l, R: r}
	}
	b := &n.bins[0]
	n.bins = n.bins[1:]
	*b = sqlast.Binary{Op: op, L: l, R: r}
	return b
}

func (n *nodeSlab) column(table, column string) *sqlast.ColumnRef {
	if len(n.cols) == 0 {
		return &sqlast.ColumnRef{Table: table, Column: column}
	}
	c := &n.cols[0]
	n.cols = n.cols[1:]
	*c = sqlast.ColumnRef{Table: table, Column: column}
	return c
}

// and chains e onto acc with AND, skipping a nil operand: one step of
// sqlast.AndAll.
func (n *nodeSlab) and(acc, e sqlast.Expr) sqlast.Expr {
	switch {
	case e == nil:
		return acc
	case acc == nil:
		return e
	}
	return n.binary(sqlast.OpAnd, acc, e)
}

// filterExpr converts a Filter into an AST predicate, its nodes drawn
// from nodes.
func filterExpr(f Filter, nodes *nodeSlab) sqlast.Expr {
	col := nodes.column(f.Col.Table, f.Col.Column)
	if f.Op == "between" {
		lo := literal(f.Value, f.IsDate, f.IsNum)
		hi := literal(f.Value2, f.IsDate, f.IsNum)
		if lo == nil || hi == nil {
			return nil
		}
		return nodes.binary(sqlast.OpAnd,
			nodes.binary(sqlast.OpGe, col, lo),
			nodes.binary(sqlast.OpLe, col, hi))
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
	return nodes.binary(op, col, val)
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
