package engine

import (
	"context"

	"soda/internal/sqlast"
)

// aggState accumulates one aggregate over a group.
type aggState struct {
	call  *sqlast.FuncCall
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   Value
	max   Value
	seen  bool
}

func (a *aggState) add(v Value) {
	if a.call.Star {
		a.count++
		return
	}
	if v.IsNull() {
		return // aggregates skip NULLs
	}
	a.count++
	switch a.call.Name {
	case "sum", "avg":
		f, ok := v.numeric()
		if !ok {
			return
		}
		a.sum += f
		if v.Kind == KInt {
			a.sumI += v.I
		} else {
			a.isInt = false
		}
	case "min":
		if !a.seen {
			a.min = v
		} else if cmp, ok := Compare(v, a.min); ok && cmp < 0 {
			a.min = v
		}
	case "max":
		if !a.seen {
			a.max = v
		} else if cmp, ok := Compare(v, a.max); ok && cmp > 0 {
			a.max = v
		}
	}
	a.seen = true
}

func (a *aggState) result() Value {
	switch a.call.Name {
	case "count":
		return Int(a.count)
	case "sum":
		if a.count == 0 {
			return Null()
		}
		if a.isInt {
			return Int(a.sumI)
		}
		return Float(a.sum)
	case "avg":
		if a.count == 0 {
			return Null()
		}
		return Float(a.sum / float64(a.count))
	case "min":
		if !a.seen {
			return Null()
		}
		return a.min
	case "max":
		if !a.seen {
			return Null()
		}
		return a.max
	default:
		return Null()
	}
}

// collectAggCalls gathers every aggregate FuncCall node reachable from the
// select list and order keys, in deterministic order.
func collectAggCalls(sel *sqlast.Select) []*sqlast.FuncCall {
	var calls []*sqlast.FuncCall
	var walk func(sqlast.Expr)
	walk = func(e sqlast.Expr) {
		switch x := e.(type) {
		case *sqlast.FuncCall:
			if x.IsAggregate() {
				calls = append(calls, x)
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlast.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlast.Not:
			walk(x.X)
		case *sqlast.IsNull:
			walk(x.X)
		}
	}
	for _, it := range sel.Items {
		if !it.Star {
			walk(it.Expr)
		}
	}
	for _, o := range sel.OrderBy {
		walk(o.Expr)
	}
	if sel.Having != nil {
		walk(sel.Having)
	}
	return calls
}

// group folds every pulled tuple into its GROUP BY group, in order of
// first appearance, keeping a copy of the group's first tuple as its
// representative. It then hands each group that passes HAVING to out, with
// the group's aggregates bound, until out is done.
func (q *stmt) group(ctx context.Context, out *projectSink) error {
	sel := q.sel
	calls := collectAggCalls(sel)
	type group struct {
		rep  tuple // representative tuple for group-by column values
		aggs []aggState
	}
	var groups []group
	newGroup := func(rep tuple) {
		g := group{rep: rep, aggs: make([]aggState, len(calls))}
		for i, call := range calls {
			g.aggs[i] = aggState{call: call, isInt: true}
		}
		groups = append(groups, g)
	}
	index := make(map[string]int)
	var key []byte
	err := q.pull(ctx, func(tu tuple) (bool, error) {
		key = key[:0]
		for _, e := range sel.GroupBy {
			v, err := q.eval(e, tu)
			if err != nil {
				return true, err
			}
			key = append(v.appendKey(key), '\x1f')
		}
		gi, ok := index[string(key)]
		if !ok {
			gi = len(groups)
			index[string(key)] = gi
			newGroup(append(tuple(nil), tu...))
		}
		for i, call := range calls {
			v := Null() // count(*) counts the row whatever it holds
			if !call.Star {
				var err error
				if v, err = q.eval(call.Args[0], tu); err != nil {
					return true, err
				}
			}
			groups[gi].aggs[i].add(v)
		}
		return false, nil
	})
	if err != nil {
		return err
	}

	// A global aggregate over zero rows still produces one group
	// (e.g. SELECT count(*) FROM empty -> 0), evaluated on a tuple with
	// every column NULL.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		newGroup(q.blankTuple())
	}

	q.aggs = make(map[*sqlast.FuncCall]Value, len(calls))
	for _, g := range groups {
		if out.done() {
			break
		}
		for i, call := range calls {
			q.aggs[call] = g.aggs[i].result()
		}
		if sel.Having != nil {
			ts, err := q.evalPred(sel.Having, g.rep)
			if err != nil {
				return err
			}
			if ts != True {
				continue
			}
		}
		if _, err := out.add(g.rep); err != nil {
			return err
		}
	}
	return nil
}
