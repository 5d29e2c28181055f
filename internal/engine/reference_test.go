package engine

// The differential oracle: the materialising executor the pull-based one
// replaced, kept verbatim apart from its names. refJoin builds every joined
// tuple breadth first, then the project or aggregate phase evaluates all of
// them before DISTINCT, ORDER BY and LIMIT apply. referenceExec shares
// compile, scan and joinOrder with Exec, so a difference in rows, their
// order or the error is a difference between the two executors.

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// referenceExec runs sel through the materialising executor.
func referenceExec(db *DB, sel *sqlast.Select, params []Value) (*Result, error) {
	q, err := compile(db, sel, params)
	if err != nil {
		return nil, err
	}
	if err := q.scan(context.Background()); err != nil {
		return nil, err
	}
	tuples, err := q.refJoin()
	if err != nil {
		return nil, err
	}
	if q.aggregate {
		return q.refAggregatePhase(tuples)
	}
	return q.refProjectPhase(tuples)
}

// refJoin materialises the joined tuples by walking joinOrder's steps, then
// applies the residual conjuncts to them.
func (q *stmt) refJoin() ([]tuple, error) {
	start, steps := q.joinOrder()
	var tuples []tuple
	for _, ri := range q.rels[start].rows {
		tu := q.blankTuple()
		tu[start] = ri
		tuples = append(tuples, tu)
	}
	for _, st := range steps {
		if st.cross() {
			tuples = q.refCrossJoin(tuples, st.rel)
		} else {
			tuples = q.refHashJoin(tuples, st)
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

// refHashJoin builds a hash table over the step relation's scanned rows and
// probes it with the joined tuples, in their order.
func (q *stmt) refHashJoin(tuples []tuple, st joinStep) []tuple {
	rel := &q.rels[st.rel]
	build := make(map[string][]int, len(rel.rows))
	probe := q.blankTuple()
	for _, ri := range rel.rows {
		probe[st.rel] = ri
		if k, ok := q.refJoinKey(probe, st.build); ok {
			build[k] = append(build[k], ri)
		}
	}
	var out []tuple
	for _, tu := range tuples {
		k, ok := q.refJoinKey(tu, st.probe)
		if !ok {
			continue
		}
		for _, ri := range build[k] {
			out = append(out, extend(tu, st.rel, ri))
		}
	}
	return out
}

// refJoinKey encodes the values at locs as one hash key; ok is false when
// any of them is NULL, which never equi-joins.
func (q *stmt) refJoinKey(tu tuple, locs []colLoc) (key string, ok bool) {
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

func (q *stmt) refCrossJoin(tuples []tuple, next int) []tuple {
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

// refProjectPhase evaluates the select list for non-aggregated queries.
func (q *stmt) refProjectPhase(tuples []tuple) (*Result, error) {
	cols, evals := q.projection()
	rows := make([]outRow, 0, len(tuples))
	for _, tu := range tuples {
		r, err := q.output(evals, tu)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return q.refFinish(cols, rows), nil
}

// refFinish applies DISTINCT, ORDER BY and LIMIT, in that order, to the
// evaluated rows of either phase.
func (q *stmt) refFinish(cols []string, rows []outRow) *Result {
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

// refAggregatePhase implements GROUP BY + aggregate evaluation: one output
// row per group that passes HAVING, in order of first appearance.
func (q *stmt) refAggregatePhase(tuples []tuple) (*Result, error) {
	sel := q.sel
	aggCalls := collectAggCalls(sel)

	type group struct {
		rep  tuple // representative tuple for group-by column values
		aggs []*aggState
	}
	groups := make(map[string]*group)
	var order []*group
	newGroup := func(key string, rep tuple) *group {
		g := &group{rep: rep, aggs: make([]*aggState, len(aggCalls))}
		for i, call := range aggCalls {
			g.aggs[i] = &aggState{call: call, isInt: true}
		}
		groups[key] = g
		order = append(order, g)
		return g
	}

	for _, tu := range tuples {
		var kb strings.Builder
		for _, e := range sel.GroupBy {
			v, err := q.eval(e, tu)
			if err != nil {
				return nil, err
			}
			kb.WriteString(v.Key())
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = newGroup(k, tu)
		}
		for i, call := range aggCalls {
			v := Null() // count(*) counts the row whatever it holds
			if !call.Star {
				var err error
				if v, err = q.eval(call.Args[0], tu); err != nil {
					return nil, err
				}
			}
			g.aggs[i].add(v)
		}
	}

	// A global aggregate over zero rows still produces one group
	// (e.g. SELECT count(*) FROM empty -> 0), evaluated on a tuple with
	// every column NULL.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		newGroup("", q.blankTuple())
	}

	cols, evals := q.projection()
	rows := make([]outRow, 0, len(order))
	for _, g := range order {
		q.aggs = make(map[*sqlast.FuncCall]Value, len(aggCalls))
		for i, call := range aggCalls {
			q.aggs[call] = g.aggs[i].result()
		}
		if sel.Having != nil {
			ts, err := q.evalPred(sel.Having, g.rep)
			if err != nil {
				return nil, err
			}
			if ts != True {
				continue
			}
		}
		r, err := q.output(evals, g.rep)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	q.aggs = nil
	return q.refFinish(cols, rows), nil
}

// diffExec runs sel through Exec and referenceExec and describes the first
// difference in columns, rows (in emission order, by kind and Key) or
// error, or returns "". One difference is allowed: a LIMIT without ORDER
// BY stops the pull, so an error that only rows past the cut raise does
// not fail Exec.
func diffExec(db *DB, sel *sqlast.Select) string {
	got, gerr := Exec(db, sel)
	want, werr := referenceExec(db, sel, nil)
	switch {
	case gerr == nil && werr == nil:
	case gerr != nil && werr != nil && gerr.Error() == werr.Error():
		return ""
	case gerr == nil && sel.Limit >= 0 && len(sel.OrderBy) == 0:
		return ""
	default:
		return fmt.Sprintf("error %v, reference error %v", gerr, werr)
	}
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
		return fmt.Sprintf("columns %v, reference %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, reference %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j, v := range got.Rows[i] {
			if w := want.Rows[i][j]; v.Kind != w.Kind || v.Key() != w.Key() {
				return fmt.Sprintf("row %d column %d: %v, reference %v", i, j, v, w)
			}
		}
	}
	return ""
}

func rowKey(row []Value) string { return string(appendRowKey(nil, row)) }

// DiffExec exposes diffExec to the package's external tests.
var DiffExec = diffExec

// randomWorld is randomDB with, on odd seeds, rows holding NULLs in every
// column a join, filter or aggregate reads.
func randomWorld(seed int64) *DB {
	db := randomDB(seed)
	if seed%2 == 1 {
		db.Table("p").Insert(Null(), Str("g1"))
		db.Table("p").Insert(Int(2), Null())
		db.Table("c").Insert(Int(90), Null(), Null())
		db.Table("c").Insert(Int(91), Int(1), Null())
		db.Table("o").Insert(Int(90), Null(), Null())
	}
	return db
}

// refs matches the relations an expression over randomDB refers to.
var refs = regexp.MustCompile(`\b([pco])\.`)

// randomSelect draws a statement over randomDB's p(id, grp), c(id, pid, v)
// and o(id, pid, tag): one to three relations in any order; a WHERE of
// equi-joins (single and two-column keys, int = float), pushed-down
// filters, residuals and non-boolean predicates; a projection that is *,
// t.*, columns or expressions, two of which fail on every row; or an
// aggregate with optional GROUP BY and HAVING; DISTINCT; ORDER BY.
func randomSelect(rng *rand.Rand) string {
	var from []string
	has := map[string]bool{}
	for _, i := range rng.Perm(3)[:1+rng.Intn(3)] {
		name := []string{"p", "c", "o"}[i]
		from = append(from, name)
		has[name] = true
	}
	avail := func(pool []string) []string {
		var out []string
		for _, e := range pool {
			ok := true
			for _, m := range refs.FindAllStringSubmatch(e, -1) {
				ok = ok && has[m[1]]
			}
			if ok {
				out = append(out, e)
			}
		}
		return out
	}
	some := func(pool []string, max int) []string {
		var out []string
		for _, i := range rng.Perm(len(pool))[:rng.Intn(min(max, len(pool))+1)] {
			out = append(out, pool[i])
		}
		return out
	}
	conds := avail([]string{
		"c.pid = p.id", "o.pid = p.id", "c.id = o.id", "c.v = o.pid", "c.pid = o.pid", "p.id = c.id",
		"c.v >= 20", "c.v < 60", "p.grp = 'g1'", "o.tag LIKE 't%'", "o.tag = 't0'", "p.id <> 2",
		"(c.v > 50 OR c.id > 3)", "c.v IS NOT NULL", "c.pid IS NULL", "NOT (c.id = 2)", "c.v", "p.grp",
		"(c.v > o.id OR p.grp = 'g0')", "c.id < o.id", "c.v + o.id > 30", "c.id <> p.id", "1 = 1",
	})
	cols := avail([]string{"p.id", "p.grp", "c.id", "c.pid", "c.v", "o.id", "o.tag", "o.pid"})
	exprs := avail([]string{"c.v * 2", "lower(p.grp)", "c.id + o.id", "p.grp || o.tag", "c.v / c.pid", "year(p.grp)", "o.tag + 1"})

	var items, order []string
	var group []string
	having := ""
	if rng.Intn(3) == 0 {
		group = some(cols, 2)
		items = append(items, group...)
		items = append(items, some(avail([]string{"count(*)", "sum(c.v)", "min(o.tag)", "max(c.pid)", "avg(c.v)", "count(o.tag)", "sum(p.id)"}), 3)...)
		if len(items) == 0 {
			items = []string{"count(*)"}
		}
		if rng.Intn(3) == 0 {
			having = " HAVING count(*) > 1"
		}
		order = append(order, items...)
	} else {
		switch rng.Intn(5) {
		case 0:
			items = []string{"*"}
		case 1:
			items = []string{from[0] + ".*"}
		default:
			items = append(some(cols, 3), some(exprs, 1)...)
			if len(items) == 0 {
				items = []string{cols[0]}
			}
		}
		order = append(order, cols...)
	}

	sql := "SELECT "
	if rng.Intn(4) == 0 {
		sql += "DISTINCT "
	}
	sql += strings.Join(items, ", ") + " FROM " + strings.Join(from, ", ")
	if w := some(conds, 4); len(w) > 0 {
		sql += " WHERE " + strings.Join(w, " AND ")
	}
	if len(group) > 0 {
		sql += " GROUP BY " + strings.Join(group, ", ")
	}
	sql += having
	if o := some(order, 2); len(o) > 0 && rng.Intn(5) < 2 {
		for i := range o {
			if rng.Intn(2) == 0 {
				o[i] += " DESC"
			}
		}
		sql += " ORDER BY " + strings.Join(o, ", ")
	}
	return sql
}

// growWorld appends rows to every table of a randomWorld, among them rows
// that join rows already there and rows with NULL keys, so a join index
// built before the appends no longer covers the table.
func growWorld(db *DB) {
	db.Table("p").Insert(Int(1), Str("g2"))
	db.Table("p").Insert(Int(50), Null())
	db.Table("c").Insert(Int(1), Int(1), Float(55))
	db.Table("c").Insert(Int(51), Int(50), Null())
	db.Table("c").Insert(Int(52), Null(), Float(1))
	db.Table("o").Insert(Int(1), Int(1), Str("t0"))
	db.Table("o").Insert(Int(52), Int(50), Str("t1"))
}

// TestDifferentialRandomWorlds: on random worlds, random statements under
// LIMIT 0, 1, 3 and none return the reference executor's rows in its order
// and its errors. Each statement runs three times: on a fresh world, whose
// join indexes it builds; again, reusing them; and after growWorld, which
// leaves them stale.
func TestDifferentialRandomWorlds(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 6; n++ {
			base := randomSelect(rng)
			for _, limit := range []string{"", " LIMIT 0", " LIMIT 1", " LIMIT 3"} {
				sql := base + limit
				sel, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatalf("parse %q: %v", sql, err)
				}
				db := randomWorld(seed)
				for _, run := range []string{"fresh", "reused", "grown"} {
					if run == "grown" {
						growWorld(db)
					}
					if d := diffExec(db, sel); d != "" {
						t.Errorf("seed %d, %s: %s\n  %s", seed, run, sql, d)
					}
				}
			}
		}
	}
}

// TestConcurrentFirstJoin: goroutines that run the same joins at once on
// a fresh world race to build its join indexes, and every one of them
// returns the reference executor's rows.
func TestConcurrentFirstJoin(t *testing.T) {
	const workers = 8
	var sels []*sqlast.Select
	for _, sql := range []string{
		"SELECT p.id, c.id, c.v FROM p, c WHERE c.pid = p.id",
		"SELECT * FROM p, c, o WHERE c.pid = p.id AND o.pid = p.id LIMIT 20",
		"SELECT c.id, o.tag FROM c, o WHERE c.v = o.pid",
	} {
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		sels = append(sels, sel)
	}
	for seed := int64(0); seed < 20; seed++ {
		db := bigWorld(seed)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for j := range sels {
					sel := sels[(j+w)%len(sels)]
					if d := diffExec(db, sel); d != "" {
						t.Errorf("seed %d: %s\n  %s", seed, sel.Render(sqlast.Generic), d)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

// bigWorld is randomWorld with a few hundred more joining rows in c and o,
// so a join index build takes long enough for the workers to overlap.
func bigWorld(seed int64) *DB {
	db := randomWorld(seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 100; i < 400; i++ {
		db.Table("c").Insert(Int(int64(i)), Int(int64(rng.Intn(9))), Float(float64(rng.Intn(10))))
		db.Table("o").Insert(Int(int64(i)), Int(int64(rng.Intn(9))), Str(fmt.Sprintf("t%d", i%3)))
	}
	return db
}
