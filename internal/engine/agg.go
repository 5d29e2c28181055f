package engine

import (
	"strings"

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

func newAggState(call *sqlast.FuncCall) *aggState {
	return &aggState{call: call, isInt: true}
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

// aggregatePhase implements GROUP BY + aggregate evaluation: one output
// row per group that passes HAVING, in order of first appearance.
func (q *stmt) aggregatePhase(tuples []tuple) (*Result, error) {
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
			g.aggs[i] = newAggState(call)
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
	return q.finish(cols, rows), nil
}
