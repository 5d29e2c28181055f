package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

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
func (r *Result) RowKey(i int) string { return string(appendRowKey(nil, r.Rows[i])) }

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
	return ExecParams(context.Background(), db, sel, nil)
}

// ExecParams executes a SELECT that may contain parameter placeholders
// (sqlast.Param), binding them at evaluation time: params[i] is the
// value of binding ordinal i+1. Placeholders are never substituted into
// the statement — they evaluate like literals against the binding slice,
// so the same prepared AST runs repeatedly with different arguments.
//
// Rows are pulled through the joins one at a time. When the statement has
// no ORDER BY and no aggregation, the pull stops at LIMIT: rows past it
// are never evaluated and cannot fail the statement. A hash join on one
// column of an unfiltered relation probes that table's join index, built
// once and shared by every statement; other hash joins index their scanned
// rows per statement (see level). A cancelled ctx ends the execution with
// ctx.Err().
func ExecParams(ctx context.Context, db *DB, sel *sqlast.Select, params []Value) (*Result, error) {
	q, err := compile(db, sel, params)
	if err != nil {
		return nil, err
	}
	if err := q.scan(ctx); err != nil {
		return nil, err
	}
	cols, evals := q.projection()
	out := &projectSink{q: q, evals: evals, seen: map[string]bool{}}
	switch {
	case q.aggregate:
		err = q.group(ctx, out)
	case !out.done():
		err = q.pull(ctx, out.add)
	}
	if err != nil {
		return nil, err
	}
	return out.result(cols), nil
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
// filters accept. An unfiltered relation keeps every row and shares the
// row list of rowIDs.
func (q *stmt) scan(ctx context.Context) error {
	probe := q.blankTuple()
	for ri := range q.rels {
		if err := ctx.Err(); err != nil {
			return err
		}
		rel := &q.rels[ri]
		if len(rel.filters) == 0 {
			rel.rows = rowIDs(len(rel.tbl.Rows))
			continue
		}
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

// identity holds 0, 1, 2, ...: every unfiltered scan keeps a prefix of it.
// A scan that finds it too short stores a longer one; all lists agree on
// their common prefix, so scans racing to grow it need no lock.
var identity atomic.Pointer[[]int]

// rowIDs returns the row indices 0..n-1, shared and read-only.
func rowIDs(n int) []int {
	if ids := identity.Load(); ids != nil && len(*ids) >= n {
		return (*ids)[:n:n]
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	identity.Store(&ids)
	return ids
}

// joinStep attaches one relation to the joined set: by hash join on the
// key columns when equi-join conjuncts connect it, by cross product when
// none does (no keys). Which index a hash step probes, the table's or one
// built for the statement, is level's choice; the plan is the same.
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

// pull walks joinOrder's steps depth first over one reused tuple and hands
// every complete tuple that passes the residual conjuncts to sink. The
// order is the one a breadth-first join of the same steps emits: the start
// relation's rows in scanned order, each extended by its matches in
// scanned-row order. The walk ends when sink reports done, on the first
// error, or when ctx is cancelled; ctx is checked every 1,024 tuples.
func (q *stmt) pull(ctx context.Context, sink func(tuple) (done bool, err error)) error {
	start, steps := q.joinOrder()
	levels := []level{{rel: start}}
	for _, st := range steps {
		levels = append(levels, q.level(st))
	}
	tu, pulled := q.blankTuple(), 0
	// walk fills slot d of tu with each row that matches the slots before
	// it and recurses; it reports true when the pull is over.
	var walk func(d int) (bool, error)
	walk = func(d int) (bool, error) {
		if d == len(levels) {
			if ok, err := q.all(q.residual, tu); !ok {
				return err != nil, err
			}
			return sink(tu)
		}
		lv := &levels[d]
		rows := q.rels[lv.rel].rows
		i := int32(0)
		if lv.head != nil {
			k, ok := q.joinKey(tu, lv.probe)
			if !ok {
				return false, nil
			}
			i = lv.head[k] - 1
		}
		for i >= 0 && int(i) < len(rows) {
			tu[lv.rel] = rows[i]
			if pulled++; pulled%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return true, err
				}
			}
			if done, err := walk(d + 1); done {
				return true, err
			}
			if lv.head == nil {
				i++
			} else {
				i = lv.next[i] - 1
			}
		}
		return false, nil
	}
	_, err := walk(0)
	return err
}

// level is one step of the walk. A hash step chains the step relation's
// scanned rows by their key: head maps a key to 1 + the first position in
// rel.rows holding it, and next maps each position to 1 + the following
// one, 0 ending the chain. A level without keys visits every scanned row.
type level struct {
	rel   int
	probe []colLoc // key columns in the relations joined before this level
	head  map[joinKey]int32
	next  []int32
}

// level gives a join step its chains; a cross step needs none. A step on
// one key column of a relation whose scan kept every row takes them from
// the table's join index, since there positions are row numbers; pull
// stops a chain at len(rel.rows), so rows the index covers beyond the
// scan stay unseen. Any other hash step indexes its scanned rows here,
// for this statement only.
func (q *stmt) level(st joinStep) level {
	lv := level{rel: st.rel, probe: st.probe}
	if st.cross() {
		return lv
	}
	rel := &q.rels[st.rel]
	rows := rel.rows
	if len(rel.filters) == 0 && len(st.build) == 1 {
		ix := rel.tbl.joinIndex(st.build[0].col, len(rows))
		lv.head, lv.next = ix.head, ix.next
		return lv
	}
	probe := q.blankTuple()
	lv.head, lv.next = chains(len(rows), func(i int) (joinKey, bool) {
		probe[st.rel] = rows[i]
		return q.joinKey(probe, st.build)
	})
	return lv
}

// chains links positions 0..n-1 by their keys into head and next as level
// describes them; a position without a key (a NULL) is on no chain.
// Linking back to front leaves every chain in position order.
func chains(n int, key func(i int) (joinKey, bool)) (head map[joinKey]int32, next []int32) {
	head, next = make(map[joinKey]int32, n), make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		if k, ok := key(i); ok {
			next[i] = head[k]
			head[k] = int32(i) + 1
		}
	}
	return head, next
}

// joinKey is a hash-join key. Two keys are equal exactly when the Value.Key
// strings of the values they encode are equal: numbers by float64 value
// (so 0 and -0 differ and every NaN is one key), dates by day. A key over
// several columns is their Value.Key strings joined, with kind KNull.
type joinKey struct {
	kind ValueKind
	n    uint64
	s    string
}

// joinKey encodes the values at locs; ok is false when any of them is
// NULL, which never equi-joins.
func (q *stmt) joinKey(tu tuple, locs []colLoc) (joinKey, bool) {
	var b []byte
	for _, loc := range locs {
		v := q.value(tu, loc)
		if v.IsNull() {
			return joinKey{}, false
		}
		if len(locs) == 1 {
			return keyOf(v), true
		}
		b = append(v.appendKey(b), '\x1f')
	}
	return joinKey{s: string(b)}, true
}

func keyOf(v Value) joinKey {
	switch v.Kind {
	case KString:
		return joinKey{kind: KString, s: v.S}
	case KInt, KFloat:
		f, _ := v.numeric()
		if f != f {
			f = math.NaN()
		}
		return joinKey{kind: KFloat, n: math.Float64bits(f)}
	case KDate:
		y, m, d := v.T.Date()
		return joinKey{kind: KDate, n: uint64(y)<<9 | uint64(m)<<5 | uint64(d)}
	}
	return joinKey{kind: v.Kind, s: v.Key()}
}

// projectSink evaluates the select list of every tuple handed to it.
// DISTINCT keeps first occurrences. Without ORDER BY the sink is done at
// LIMIT, so nothing past it is evaluated; with one, result sorts the kept
// rows stably and then cuts.
type projectSink struct {
	q     *stmt
	evals []func(tuple) (Value, error)
	rows  []outRow
	seen  map[string]bool // DISTINCT row keys
	key   []byte
}

func (s *projectSink) done() bool {
	sel := s.q.sel
	return len(sel.OrderBy) == 0 && sel.Limit >= 0 && len(s.rows) >= sel.Limit
}

func (s *projectSink) add(tu tuple) (bool, error) {
	r, err := s.q.output(s.evals, tu)
	if err != nil {
		return true, err
	}
	if s.q.sel.Distinct {
		s.key = appendRowKey(s.key[:0], r.row)
		if s.seen[string(s.key)] {
			return false, nil
		}
		s.seen[string(s.key)] = true
	}
	s.rows = append(s.rows, r)
	return s.done(), nil
}

// result applies ORDER BY and LIMIT to the kept rows.
func (s *projectSink) result(cols []string) *Result {
	sel, rows := s.q.sel, s.rows
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

// appendRowKey appends the values' Key strings to dst, separated by 0x1f.
func appendRowKey(dst []byte, row []Value) []byte {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = v.appendKey(dst)
	}
	return dst
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
