package engine

import (
	"fmt"
	"sort"
	"strings"

	"soda/internal/sqlast"
)

// Result is a materialised query result.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// RowKey returns a canonical encoding of row i for set comparison
// (precision/recall against gold standards compares tuples as sets).
func (r *Result) RowKey(i int) string { return rowKey(r.Rows[i]) }

// KeySet returns the set of row keys with multiplicity collapsed.
func (r *Result) KeySet() map[string]struct{} {
	set := make(map[string]struct{}, len(r.Rows))
	for i := range r.Rows {
		set[r.RowKey(i)] = struct{}{}
	}
	return set
}

// Exec executes a SELECT against the database.
func Exec(db *DB, sel *sqlast.Select) (*Result, error) {
	return ExecParams(db, sel, nil)
}

// ExecParams executes a SELECT that may contain parameter placeholders
// (sqlast.Param), binding them at evaluation time: params[i] is the
// value of binding ordinal i+1. Placeholders are never substituted into
// the statement — they evaluate like literals against the binding slice,
// so the same prepared AST runs repeatedly with different arguments.
func ExecParams(db *DB, sel *sqlast.Select, params []Value) (*Result, error) {
	q, err := compile(db, sel, params)
	if err != nil {
		return nil, err
	}
	if err := q.scan(); err != nil {
		return nil, err
	}
	tuples, err := q.join()
	if err != nil {
		return nil, err
	}
	if q.aggregate {
		return q.aggregatePhase(tuples)
	}
	return q.projectPhase(tuples)
}

// stmt is a bound statement: the FROM relations with their pushed-down
// filters, every column reference resolved, and the remaining WHERE
// conjuncts split into equi-joins and residuals. compile is its only
// constructor, so Exec and Explain bind, validate and plan identically.
type stmt struct {
	evalCtx
	sel       *sqlast.Select
	equi      []plannedConjunct // classEquiJoin conjuncts, in WHERE order
	residual  []sqlast.Expr     // ORs, 3+ relation and non-equi cross-relation predicates
	aggregate bool              // GROUP BY, HAVING or an aggregate call: grouped output
}

// compile binds sel against db and rejects everything that can be known
// wrong from the statement and the schema alone, whether or not a row
// would ever reach the offending expression.
func compile(db *DB, sel *sqlast.Select, params []Value) (*stmt, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("engine: empty FROM list")
	}
	q := &stmt{
		evalCtx:   evalCtx{locs: make(map[*sqlast.ColumnRef]colLoc), params: params},
		sel:       sel,
		aggregate: len(sel.GroupBy) > 0 || sel.HasAggregate() || sel.Having != nil,
	}
	seen := make(map[string]bool)
	for _, ref := range sel.From {
		tbl := db.Table(ref.Table)
		if tbl == nil {
			return nil, fmt.Errorf("engine: unknown table %s", ref.Table)
		}
		name := strings.ToLower(ref.Name())
		if seen[name] {
			return nil, fmt.Errorf("engine: duplicate table name %s in FROM (alias needed)", name)
		}
		seen[name] = true
		q.rels = append(q.rels, relation{name: name, tbl: tbl})
	}

	// Aggregate calls are legal where a group exists to evaluate them
	// over: the select list, ORDER BY and HAVING, not WHERE or GROUP BY.
	bind := func(e sqlast.Expr, aggOK bool) error {
		if err := q.resolve(e); err != nil {
			return err
		}
		return checkCalls(e, aggOK)
	}
	star := false
	for _, it := range sel.Items {
		if it.Star {
			if it.Table != "" && !seen[strings.ToLower(it.Table)] {
				return nil, fmt.Errorf("engine: %s.* refers to unknown table", it.Table)
			}
			star = true
			continue
		}
		if err := bind(it.Expr, true); err != nil {
			return nil, err
		}
	}
	if sel.Where != nil {
		if err := bind(sel.Where, false); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := bind(g, false); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if err := bind(o.Expr, true); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := bind(sel.Having, true); err != nil {
			return nil, err
		}
	}
	if star && q.aggregate {
		return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
	}

	for _, e := range sqlast.Conjuncts(sel.Where) {
		switch pc := classify(&q.evalCtx, e); pc.class {
		case classSingle:
			q.rels[pc.rel].filters = append(q.rels[pc.rel].filters, e)
		case classEquiJoin:
			q.equi = append(q.equi, pc)
		default:
			q.residual = append(q.residual, e)
		}
	}
	return q, nil
}

// conjunctClass classifies a WHERE conjunct for the planner.
type conjunctClass uint8

const (
	classSingle   conjunctClass = iota // references exactly one relation
	classEquiJoin                      // colA = colB across two relations
	classResidual                      // everything else
)

type plannedConjunct struct {
	expr  sqlast.Expr
	class conjunctClass
	rel   int // classSingle: the relation
	// classEquiJoin fields:
	relL, relR colLoc
}

func classify(ctx *evalCtx, e sqlast.Expr) plannedConjunct {
	refs := sqlast.ColumnRefs(e)
	relSet := make(map[int]bool)
	for _, r := range refs {
		relSet[ctx.locs[r].rel] = true
	}
	switch len(relSet) {
	case 0:
		return plannedConjunct{expr: e, class: classResidual}
	case 1:
		for rel := range relSet {
			return plannedConjunct{expr: e, class: classSingle, rel: rel}
		}
	case 2:
		if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpEq {
			lref, lok := b.L.(*sqlast.ColumnRef)
			rref, rok := b.R.(*sqlast.ColumnRef)
			if lok && rok {
				ll, rl := ctx.locs[lref], ctx.locs[rref]
				if ll.rel != rl.rel {
					return plannedConjunct{expr: e, class: classEquiJoin, relL: ll, relR: rl}
				}
			}
		}
	}
	return plannedConjunct{expr: e, class: classResidual}
}

// scan fills every relation's candidate rows: those its pushed-down
// filters accept.
func (q *stmt) scan() error {
	for ri := range q.rels {
		rel := &q.rels[ri]
		probe := q.blankTuple()
		for i := range rel.tbl.Rows {
			probe[ri] = i
			ok, err := q.all(rel.filters, probe)
			if err != nil {
				return err
			}
			if ok {
				rel.rows = append(rel.rows, i)
			}
		}
	}
	return nil
}

// joinStep attaches one relation to the joined set: by hash join on the
// key columns when equi-join conjuncts connect it, by cross product when
// none does (no keys).
type joinStep struct {
	rel          int
	probe, build []colLoc      // pairwise: key column in the joined set, in rel
	conds        []sqlast.Expr // the conjuncts the keys came from
}

func (st joinStep) cross() bool { return len(st.conds) == 0 }

// joinOrder decides, from the scanned row counts, where the join starts
// and the order and strategy by which the other relations attach: start
// from the smallest relation, then always take the smallest one an
// equi-join connects to the joined set, and when none is connected cross
// join the smallest remaining one. It is the plan: Exec walks the steps
// and Explain prints them.
func (q *stmt) joinOrder() (start int, steps []joinStep) {
	smaller := func(ri, than int) bool {
		return than < 0 || len(q.rels[ri].rows) < len(q.rels[than].rows)
	}
	start = -1
	for ri := range q.rels {
		if smaller(ri, start) {
			start = ri
		}
	}
	joined := make([]bool, len(q.rels))
	joined[start] = true
	for len(steps) < len(q.rels)-1 {
		next, unconnected := -1, -1
		for ri := range q.rels {
			switch {
			case joined[ri]:
			case connected(q.equi, joined, ri):
				if smaller(ri, next) {
					next = ri
				}
			case smaller(ri, unconnected):
				unconnected = ri
			}
		}
		if next < 0 {
			next = unconnected
		}
		step := joinStep{rel: next}
		for _, pc := range q.equi {
			l, r := pc.relL, pc.relR
			switch {
			case l.rel == next && joined[r.rel]:
				step.probe, step.build = append(step.probe, r), append(step.build, l)
			case r.rel == next && joined[l.rel]:
				step.probe, step.build = append(step.probe, l), append(step.build, r)
			default:
				continue
			}
			step.conds = append(step.conds, pc.expr)
		}
		steps = append(steps, step)
		joined[next] = true
	}
	return start, steps
}

// connected reports whether relation ri has an equi-join conjunct linking
// it to any already-joined relation.
func connected(equi []plannedConjunct, joined []bool, ri int) bool {
	for _, pc := range equi {
		l, r := pc.relL.rel, pc.relR.rel
		if (l == ri && joined[r]) || (r == ri && joined[l]) {
			return true
		}
	}
	return false
}

// join materialises the joined tuples by walking joinOrder's steps, then
// applies the residual conjuncts to them.
func (q *stmt) join() ([]tuple, error) {
	start, steps := q.joinOrder()
	var tuples []tuple
	for _, ri := range q.rels[start].rows {
		tu := q.blankTuple()
		tu[start] = ri
		tuples = append(tuples, tu)
	}
	for _, st := range steps {
		if st.cross() {
			tuples = q.crossJoin(tuples, st.rel)
		} else {
			tuples = q.hashJoin(tuples, st)
		}
	}
	if len(q.residual) == 0 {
		return tuples, nil
	}
	var out []tuple
	for _, tu := range tuples {
		ok, err := q.all(q.residual, tu)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, tu)
		}
	}
	return out, nil
}

// hashJoin builds a hash table over the step relation's scanned rows and
// probes it with the joined tuples, in their order.
func (q *stmt) hashJoin(tuples []tuple, st joinStep) []tuple {
	rel := &q.rels[st.rel]
	build := make(map[string][]int, len(rel.rows))
	probe := q.blankTuple()
	for _, ri := range rel.rows {
		probe[st.rel] = ri
		if k, ok := q.joinKey(probe, st.build); ok {
			build[k] = append(build[k], ri)
		}
	}
	var out []tuple
	for _, tu := range tuples {
		k, ok := q.joinKey(tu, st.probe)
		if !ok {
			continue
		}
		for _, ri := range build[k] {
			out = append(out, extend(tu, st.rel, ri))
		}
	}
	return out
}

// joinKey encodes the values at locs as one hash key; ok is false when
// any of them is NULL, which never equi-joins.
func (q *stmt) joinKey(tu tuple, locs []colLoc) (key string, ok bool) {
	var kb strings.Builder
	for _, loc := range locs {
		v := q.value(tu, loc)
		if v.IsNull() {
			return "", false
		}
		kb.WriteString(v.Key())
		kb.WriteByte('\x1f')
	}
	return kb.String(), true
}

func (q *stmt) crossJoin(tuples []tuple, next int) []tuple {
	rel := &q.rels[next]
	out := make([]tuple, 0, len(tuples)*max(1, len(rel.rows)))
	for _, tu := range tuples {
		for _, ri := range rel.rows {
			out = append(out, extend(tu, next, ri))
		}
	}
	return out
}

// extend copies tu with relation rel's row set to ri.
func extend(tu tuple, rel, ri int) tuple {
	ntu := make(tuple, len(tu))
	copy(ntu, tu)
	ntu[rel] = ri
	return ntu
}

// projectPhase evaluates the select list for non-aggregated queries.
func (q *stmt) projectPhase(tuples []tuple) (*Result, error) {
	cols, evals := q.projection()
	rows := make([]outRow, 0, len(tuples))
	for _, tu := range tuples {
		r, err := q.output(evals, tu)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return q.finish(cols, rows), nil
}

// outRow is one evaluated result row with its ORDER BY keys.
type outRow struct {
	row  []Value
	keys []Value
}

// output evaluates the select list and the ORDER BY keys against tu.
func (q *stmt) output(evals []func(tuple) (Value, error), tu tuple) (outRow, error) {
	r := outRow{row: make([]Value, len(evals)), keys: make([]Value, len(q.sel.OrderBy))}
	var err error
	for i, ev := range evals {
		if r.row[i], err = ev(tu); err != nil {
			return outRow{}, err
		}
	}
	for i, o := range q.sel.OrderBy {
		if r.keys[i], err = q.eval(o.Expr, tu); err != nil {
			return outRow{}, err
		}
	}
	return r, nil
}

// finish applies DISTINCT, ORDER BY and LIMIT, in that order, to the
// evaluated rows of either phase.
func (q *stmt) finish(cols []string, rows []outRow) *Result {
	sel := q.sel
	if sel.Distinct {
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, r := range rows {
			k := rowKey(r.row)
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, r)
		}
		rows = kept
	}
	if len(sel.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return lessKeys(rows[i].keys, rows[j].keys, sel.OrderBy)
		})
	}
	if sel.Limit >= 0 && len(rows) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	res := &Result{Columns: cols}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.row)
	}
	return res
}

// projection returns the output column names and per-tuple evaluators.
func (q *stmt) projection() ([]string, []func(tuple) (Value, error)) {
	var cols []string
	var evals []func(tuple) (Value, error)

	addStar := func(relIdx int) {
		rel := q.rels[relIdx]
		for ci := range rel.tbl.Cols {
			cols = append(cols, rel.name+"."+rel.tbl.Cols[ci].Name)
			loc := colLoc{relIdx, ci}
			evals = append(evals, func(tu tuple) (Value, error) {
				return q.value(tu, loc), nil
			})
		}
	}

	for _, it := range q.sel.Items {
		switch {
		case it.Star && it.Table == "":
			for ri := range q.rels {
				addStar(ri)
			}
		case it.Star:
			want := strings.ToLower(it.Table)
			for ri := range q.rels {
				if q.rels[ri].name == want {
					addStar(ri)
				}
			}
		default:
			name := it.Alias
			if name == "" {
				name = it.Expr.String()
			}
			cols = append(cols, strings.ToLower(name))
			expr := it.Expr
			evals = append(evals, func(tu tuple) (Value, error) {
				return q.eval(expr, tu)
			})
		}
	}
	return cols, evals
}

func rowKey(row []Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f")
}

// lessKeys orders rows by the ORDER BY keys; NULLs sort last in ascending
// order and first in descending order (Oracle default, the paper's DBMS).
func lessKeys(a, b []Value, order []sqlast.OrderItem) bool {
	for i := range order {
		av, bv := a[i], b[i]
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if av.IsNull() {
			return false // NULLS LAST in ASC; after flip below for DESC
		}
		if bv.IsNull() {
			return true
		}
		cmp, ok := Compare(av, bv)
		if !ok || cmp == 0 {
			continue
		}
		if order[i].Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}
