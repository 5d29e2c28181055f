package engine

import (
	"fmt"
	"strings"

	"soda/internal/sqlast"
)

// colLoc locates a resolved column: relation index in the FROM list and
// column index within that relation's table.
type colLoc struct{ rel, col int }

// evalCtx holds everything needed to evaluate expressions against joined
// rows: the FROM relations, resolved column locations, and (after
// grouping) per-group aggregate values keyed by call node.
type evalCtx struct {
	rels []relation
	locs map[*sqlast.ColumnRef]colLoc
	aggs map[*sqlast.FuncCall]Value
	// params are the bound placeholder values: params[i] is binding
	// ordinal i+1 (ExecParams).
	params []Value
}

// relation is one FROM entry with its pushed-down filters and, once
// scanned, the rows they keep.
type relation struct {
	name    string // effective name (alias if present), lower-cased
	tbl     *Table
	filters []sqlast.Expr // WHERE conjuncts that reference only this relation
	rows    []int         // candidate row indices after the filters
}

// resolve records the location of every column reference in e, returning an
// error for unknown or ambiguous names.
func (c *evalCtx) resolve(e sqlast.Expr) error {
	for _, ref := range sqlast.ColumnRefs(e) {
		if _, done := c.locs[ref]; done {
			continue
		}
		loc, err := c.lookup(ref)
		if err != nil {
			return err
		}
		c.locs[ref] = loc
	}
	return nil
}

func (c *evalCtx) lookup(ref *sqlast.ColumnRef) (colLoc, error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for ri := range c.rels {
			if c.rels[ri].name != want {
				continue
			}
			ci := c.rels[ri].tbl.ColIndex(ref.Column)
			if ci < 0 {
				return colLoc{}, fmt.Errorf("engine: no column %s in table %s", ref.Column, ref.Table)
			}
			return colLoc{ri, ci}, nil
		}
		return colLoc{}, fmt.Errorf("engine: table %s is not in the FROM list", ref.Table)
	}
	found := colLoc{-1, -1}
	for ri := range c.rels {
		ci := c.rels[ri].tbl.ColIndex(ref.Column)
		if ci < 0 {
			continue
		}
		if found.rel >= 0 {
			return colLoc{}, fmt.Errorf("engine: ambiguous column %s", ref.Column)
		}
		found = colLoc{ri, ci}
	}
	if found.rel < 0 {
		return colLoc{}, fmt.Errorf("engine: unknown column %s", ref.Column)
	}
	return found, nil
}

// tuple is a joined row: one row index per relation, -1 for relations not
// yet joined in.
type tuple []int

// blankTuple returns a tuple with no relation joined in.
func (c *evalCtx) blankTuple() tuple {
	tu := make(tuple, len(c.rels))
	for i := range tu {
		tu[i] = -1
	}
	return tu
}

// value reads the column at loc from the tuple.
func (c *evalCtx) value(tu tuple, loc colLoc) Value {
	ri := tu[loc.rel]
	if ri < 0 {
		// Unjoined relation: only reachable through planner bugs; treat
		// as NULL rather than crash so residual evaluation stays total.
		return Null()
	}
	return c.rels[loc.rel].tbl.Rows[ri][loc.col]
}

// eval evaluates a scalar expression against a tuple. Aggregate calls are
// served from c.aggs, which the grouping phase fills per group.
func (c *evalCtx) eval(e sqlast.Expr, tu tuple) (Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return litValue(x), nil

	case *sqlast.Param:
		if x.Ordinal < 1 || x.Ordinal > len(c.params) {
			return Null(), fmt.Errorf("engine: no binding for placeholder %d (%d argument(s) bound)", x.Ordinal, len(c.params))
		}
		return c.params[x.Ordinal-1], nil

	case *sqlast.ColumnRef:
		loc, ok := c.locs[x]
		if !ok {
			return Null(), fmt.Errorf("engine: unresolved column %s", x)
		}
		return c.value(tu, loc), nil

	case *sqlast.FuncCall:
		if x.IsAggregate() {
			if v, ok := c.aggs[x]; ok {
				return v, nil
			}
			return Null(), fmt.Errorf("engine: aggregate %s outside grouping context", x.Name)
		}
		return c.evalScalarFunc(x, tu)

	case *sqlast.Binary:
		if x.Op == sqlast.OpAnd || x.Op == sqlast.OpOr {
			ts, err := c.evalPred(e, tu)
			if err != nil {
				return Null(), err
			}
			return tristateValue(ts), nil
		}
		l, err := c.eval(x.L, tu)
		if err != nil {
			return Null(), err
		}
		r, err := c.eval(x.R, tu)
		if err != nil {
			return Null(), err
		}
		if x.Op.IsComparison() {
			return tristateValue(compareOp(x.Op, l, r)), nil
		}
		return arith(x.Op, l, r)

	case *sqlast.Not:
		ts, err := c.evalPred(x.X, tu)
		if err != nil {
			return Null(), err
		}
		return tristateValue(ts.Not()), nil

	case *sqlast.IsNull:
		v, err := c.eval(x.X, tu)
		if err != nil {
			return Null(), err
		}
		res := v.IsNull()
		if x.Neg {
			res = !res
		}
		return Bool(res), nil

	default:
		return Null(), fmt.Errorf("engine: unsupported expression %T", e)
	}
}

// scalarFuncs are the scalar functions, all of one argument and all NULL
// on a NULL argument; each entry sees a non-NULL value.
var scalarFuncs = map[string]func(Value) (Value, error){
	"lower":  func(v Value) (Value, error) { return Str(strings.ToLower(v.String())), nil },
	"upper":  func(v Value) (Value, error) { return Str(strings.ToUpper(v.String())), nil },
	"length": func(v Value) (Value, error) { return Int(int64(len(v.String()))), nil },
	"year": func(v Value) (Value, error) {
		if v.Kind != KDate {
			return Null(), fmt.Errorf("engine: year() needs a date, got %v", v.Kind)
		}
		return Int(int64(v.T.Year())), nil
	},
}

// checkCalls rejects the function calls in e that are wrong whatever the
// data: unknown names, wrong arity, and aggregates where no group exists
// to evaluate them over (aggOK false, or inside another aggregate).
func checkCalls(e sqlast.Expr, aggOK bool) error {
	switch x := e.(type) {
	case *sqlast.FuncCall:
		switch {
		case x.IsAggregate() && !aggOK:
			return fmt.Errorf("engine: aggregate %s outside grouping context", x.Name)
		case x.IsAggregate() && x.Star:
			return nil
		case x.IsAggregate() && len(x.Args) != 1:
			return fmt.Errorf("engine: aggregate %s expects 1 argument", x.Name)
		case x.IsAggregate():
			return checkCalls(x.Args[0], false)
		case scalarFuncs[x.Name] == nil:
			return fmt.Errorf("engine: unknown function %s", x.Name)
		case len(x.Args) != 1:
			return fmt.Errorf("engine: %s expects 1 argument", x.Name)
		}
		return checkCalls(x.Args[0], aggOK)
	case *sqlast.Binary:
		if err := checkCalls(x.L, aggOK); err != nil {
			return err
		}
		return checkCalls(x.R, aggOK)
	case *sqlast.Not:
		return checkCalls(x.X, aggOK)
	case *sqlast.IsNull:
		return checkCalls(x.X, aggOK)
	}
	return nil
}

// evalScalarFunc applies a scalar function; compile has checked its name
// and arity.
func (c *evalCtx) evalScalarFunc(x *sqlast.FuncCall, tu tuple) (Value, error) {
	v, err := c.eval(x.Args[0], tu)
	if err != nil || v.IsNull() {
		return Null(), err
	}
	return scalarFuncs[x.Name](v)
}

// all reports whether every predicate holds (is True, not Unknown) on tu.
func (c *evalCtx) all(preds []sqlast.Expr, tu tuple) (bool, error) {
	for _, p := range preds {
		ts, err := c.evalPred(p, tu)
		if err != nil || ts != True {
			return false, err
		}
	}
	return true, nil
}

// evalPred evaluates e as a predicate under SQL three-valued logic.
func (c *evalCtx) evalPred(e sqlast.Expr, tu tuple) (Tristate, error) {
	switch x := e.(type) {
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpAnd:
			l, err := c.evalPred(x.L, tu)
			if err != nil {
				return Unknown, err
			}
			if l == False {
				return False, nil
			}
			r, err := c.evalPred(x.R, tu)
			if err != nil {
				return Unknown, err
			}
			return l.And(r), nil
		case sqlast.OpOr:
			l, err := c.evalPred(x.L, tu)
			if err != nil {
				return Unknown, err
			}
			if l == True {
				return True, nil
			}
			r, err := c.evalPred(x.R, tu)
			if err != nil {
				return Unknown, err
			}
			return l.Or(r), nil
		}
		if x.Op.IsComparison() {
			l, err := c.eval(x.L, tu)
			if err != nil {
				return Unknown, err
			}
			r, err := c.eval(x.R, tu)
			if err != nil {
				return Unknown, err
			}
			return compareOp(x.Op, l, r), nil
		}
		v, err := c.eval(e, tu)
		if err != nil {
			return Unknown, err
		}
		return truthy(v), nil

	case *sqlast.Not:
		ts, err := c.evalPred(x.X, tu)
		if err != nil {
			return Unknown, err
		}
		return ts.Not(), nil

	default:
		v, err := c.eval(e, tu)
		if err != nil {
			return Unknown, err
		}
		return truthy(v), nil
	}
}

// truthy reads a value in predicate position. A non-boolean there only
// arises in hand-written queries: nonzero numbers, non-empty strings and
// dates are true.
func truthy(v Value) Tristate {
	switch v.Kind {
	case KNull:
		return Unknown
	case KBool:
		return tristate(v.B)
	case KInt, KFloat:
		f, _ := v.numeric()
		return tristate(f != 0)
	case KString:
		return tristate(v.S != "")
	default:
		return True
	}
}

// compareOp applies a comparison operator under three-valued logic.
func compareOp(op sqlast.BinOp, l, r Value) Tristate {
	if l.IsNull() || r.IsNull() {
		return Unknown
	}
	if op == sqlast.OpLike {
		return tristate(likeMatch(l.String(), r.String()))
	}
	cmp, ok := Compare(l, r)
	if !ok {
		// Incomparable kinds: SQL engines raise type errors; for the
		// evaluation harness a definite mismatch is more useful.
		return False
	}
	switch op {
	case sqlast.OpEq:
		return tristate(cmp == 0)
	case sqlast.OpNe:
		return tristate(cmp != 0)
	case sqlast.OpLt:
		return tristate(cmp < 0)
	case sqlast.OpLe:
		return tristate(cmp <= 0)
	case sqlast.OpGt:
		return tristate(cmp > 0)
	case sqlast.OpGe:
		return tristate(cmp >= 0)
	default:
		return Unknown
	}
}

// arith applies an arithmetic operator with numeric coercion.
func arith(op sqlast.BinOp, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if op == sqlast.OpConcat {
		// String concatenation; non-string operands coerce through their
		// display form, the way warehouses implicitly cast in || context.
		return Str(l.String() + r.String()), nil
	}
	lf, lok := l.numeric()
	rf, rok := r.numeric()
	if !lok || !rok {
		return Null(), fmt.Errorf("engine: arithmetic on non-numeric values %v, %v", l, r)
	}
	bothInt := l.Kind == KInt && r.Kind == KInt
	switch op {
	case sqlast.OpAdd:
		if bothInt {
			return Int(l.I + r.I), nil
		}
		return Float(lf + rf), nil
	case sqlast.OpSub:
		if bothInt {
			return Int(l.I - r.I), nil
		}
		return Float(lf - rf), nil
	case sqlast.OpMul:
		if bothInt {
			return Int(l.I * r.I), nil
		}
		return Float(lf * rf), nil
	case sqlast.OpDiv:
		if rf == 0 {
			return Null(), nil
		}
		return Float(lf / rf), nil
	default:
		return Null(), fmt.Errorf("engine: unsupported arithmetic op %v", op)
	}
}

func litValue(l *sqlast.Literal) Value {
	switch l.Kind {
	case sqlast.LitString:
		return Str(l.S)
	case sqlast.LitInt:
		return Int(l.I)
	case sqlast.LitFloat:
		return Float(l.F)
	case sqlast.LitDate:
		return DateOf(l.T)
	case sqlast.LitBool:
		return Bool(l.B)
	default:
		return Null()
	}
}

func tristateValue(t Tristate) Value {
	switch t {
	case True:
		return Bool(true)
	case False:
		return Bool(false)
	default:
		return Null()
	}
}
