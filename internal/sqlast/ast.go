// Package sqlast defines the abstract syntax tree for the SQL subset that
// SODA generates and the in-memory engine executes: single SELECT blocks
// with comma-joined FROM lists, WHERE conjunctions/disjunctions, aggregates,
// GROUP BY, ORDER BY and LIMIT. This mirrors the statements shown in the
// paper's Query 1–4 (§4.4) and the gold-standard queries of Table 2; the
// paper's related work (SQAK) calls the shape SELECT-PROJECT-JOIN-GROUP-BY.
package sqlast

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
)

// Expr is any SQL scalar expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, in increasing binding order groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat // string concatenation: "a || b" (CONCAT(a, b) in MySQL)
)

var binOpNames = map[BinOp]string{
	OpOr:     "OR",
	OpAnd:    "AND",
	OpEq:     "=",
	OpNe:     "<>",
	OpLt:     "<",
	OpLe:     "<=",
	OpGt:     ">",
	OpGe:     ">=",
	OpLike:   "LIKE",
	OpAdd:    "+",
	OpSub:    "-",
	OpMul:    "*",
	OpDiv:    "/",
	OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsComparison reports whether the operator compares values (as opposed to
// combining booleans or doing arithmetic).
func (op BinOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return true
	}
	return false
}

// Binary is a binary expression L op R.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) exprNode() {}

func (b *Binary) String() string { return RenderExpr(b, Generic) }

// precedence returns a binding strength for printing parentheses.
func precedence(op BinOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return 3
	case OpAdd, OpSub, OpConcat:
		return 4
	default:
		return 5
	}
}

func needsParens(child Expr, parent BinOp) bool {
	b, ok := child.(*Binary)
	if !ok {
		return false
	}
	if precedence(b.Op) < precedence(parent) {
		return true
	}
	// Comparisons cannot chain in the grammar: "(a = b) = c" must keep
	// its parentheses even on the left or the output fails to reparse.
	return precedence(b.Op) == precedence(parent) && parent.IsComparison()
}

// needsParensRight is needsParens for the right operand. The grammar is
// left-associative, so a right child at equal precedence would
// re-associate on reparse — "a || (b + c)" printed bare as
// "a || b + c" reads back as "(a || b) + c". Parentheses are omitted
// only when the operator is the same and associative, which keeps the
// common generated shapes (AND chains, concat chains) paren-free.
func needsParensRight(child Expr, parent BinOp) bool {
	b, ok := child.(*Binary)
	if !ok {
		return false
	}
	if precedence(b.Op) != precedence(parent) {
		return precedence(b.Op) < precedence(parent)
	}
	if b.Op != parent {
		return true
	}
	switch parent {
	case OpAnd, OpOr, OpAdd, OpMul, OpConcat:
		return false
	}
	return true
}

// Not is logical negation.
type Not struct{ X Expr }

func (*Not) exprNode() {}

func (n *Not) String() string { return RenderExpr(n, Generic) }

// IsNull is "X IS [NOT] NULL".
type IsNull struct {
	X   Expr
	Neg bool
}

func (*IsNull) exprNode() {}

func (n *IsNull) String() string { return RenderExpr(n, Generic) }

// ColumnRef names a column, optionally qualified by table (or alias).
type ColumnRef struct {
	Table  string // optional
	Column string
}

func (*ColumnRef) exprNode() {}

func (c *ColumnRef) String() string { return RenderExpr(c, Generic) }

// LiteralKind discriminates literal types.
type LiteralKind uint8

// Literal kinds.
const (
	LitString LiteralKind = iota
	LitInt
	LitFloat
	LitDate
	LitBool
	LitNull
)

// Literal is a constant value.
type Literal struct {
	Kind LiteralKind
	S    string
	I    int64
	F    float64
	T    time.Time
	B    bool
}

func (*Literal) exprNode() {}

func (l *Literal) String() string { return RenderExpr(l, Generic) }

// appendTo appends the literal in the dialect's idiom.
func (l *Literal) appendTo(dst []byte, d *Dialect) []byte {
	switch l.Kind {
	case LitString:
		return d.appendStringLiteral(dst, l.S)
	case LitInt:
		return strconv.AppendInt(dst, l.I, 10)
	case LitFloat:
		// Plain decimal notation with a forced decimal point: the SQL
		// lexer has no exponent syntax (so %g's "1e+06" would not
		// reparse), integral floats like 1e19 must not print as integer
		// text (it may overflow int64 on reparse), and negative zero
		// normalises to "0.0".
		if l.F == 0 {
			return append(dst, "0.0"...)
		}
		start := len(dst)
		dst = strconv.AppendFloat(dst, l.F, 'f', -1, 64)
		if bytes.IndexByte(dst[start:], '.') < 0 {
			dst = append(dst, ".0"...)
		}
		return dst
	case LitDate:
		return d.appendDateLiteral(dst, l.T)
	case LitBool:
		return append(dst, d.boolLiteral(l.B)...)
	default:
		return append(dst, "NULL"...)
	}
}

// StringLit returns a string literal.
func StringLit(s string) *Literal { return &Literal{Kind: LitString, S: s} }

// IntLit returns an integer literal.
func IntLit(i int64) *Literal { return &Literal{Kind: LitInt, I: i} }

// FloatLit returns a float literal.
func FloatLit(f float64) *Literal { return &Literal{Kind: LitFloat, F: f} }

// DateLit returns a date literal truncated to the day.
func DateLit(t time.Time) *Literal {
	return &Literal{Kind: LitDate, T: time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)}
}

// BoolLit returns a boolean literal.
func BoolLit(b bool) *Literal { return &Literal{Kind: LitBool, B: b} }

// NullLit returns the NULL literal.
func NullLit() *Literal { return &Literal{Kind: LitNull} }

// Param is a query parameter placeholder — valid anywhere a literal is.
// Name is the binding name a saved query declares ("start"); Ordinal is
// the 1-based binding position the placeholder renders as ($2 in
// Postgres); Type is the literal kind the binding is expected to carry
// (LitNull means untyped). Placeholders parsed from text carry only the
// ordinal — names and types live in the statement's parameter specs.
type Param struct {
	Name    string
	Ordinal int
	Type    LiteralKind
}

func (*Param) exprNode() {}

func (p *Param) String() string { return RenderExpr(p, Generic) }

// ParamsOf returns every parameter placeholder in the statement in
// render order (SELECT list, WHERE, GROUP BY, HAVING, ORDER BY) — the
// occurrence order ?-placeholder dialects bind arguments in.
func ParamsOf(s *Select) []*Param {
	var out []*Param
	collect := func(e Expr) {
		for _, p := range paramsIn(e) {
			out = append(out, p)
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			collect(it.Expr)
		}
	}
	collect(s.Where)
	for _, g := range s.GroupBy {
		collect(g)
	}
	collect(s.Having)
	for _, o := range s.OrderBy {
		collect(o.Expr)
	}
	return out
}

// paramsIn returns the placeholders of one expression in depth-first
// (render) order.
func paramsIn(e Expr) []*Param {
	var out []*Param
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Param:
			out = append(out, x)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// NumberParams assigns binding ordinals to the statement's placeholders
// in render order — placeholders sharing a non-empty Name share an
// ordinal (they bind one argument, rendered $N twice in Postgres) —
// and returns the binding names by ordinal. Unnamed placeholders each
// take their own ordinal and report their placeholder spelling as name.
func NumberParams(s *Select) []string {
	var names []string
	byName := map[string]int{}
	for _, p := range ParamsOf(s) {
		if p.Name != "" {
			if ord, ok := byName[p.Name]; ok {
				p.Ordinal = ord
				continue
			}
		}
		names = append(names, p.Name)
		p.Ordinal = len(names)
		if p.Name != "" {
			byName[p.Name] = p.Ordinal
		}
	}
	return names
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
type FuncCall struct {
	Name string // lower-case: count, sum, avg, min, max
	Args []Expr
	Star bool
}

func (*FuncCall) exprNode() {}

func (f *FuncCall) String() string { return RenderExpr(f, Generic) }

// AggregateFuncs lists the aggregate function names the engine supports.
var AggregateFuncs = map[string]bool{
	"count": true,
	"sum":   true,
	"avg":   true,
	"min":   true,
	"max":   true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool { return AggregateFuncs[f.Name] }

// SelectItem is one projection in the SELECT list. Star marks "*" (or
// "tbl.*" when Expr is a ColumnRef with empty Column).
type SelectItem struct {
	Star  bool
	Table string // for "tbl.*"
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string { return s.Render(Generic) }

// Render renders the projection in the dialect.
func (s SelectItem) Render(d *Dialect) string { return string(s.appendTo(nil, d)) }

func (s SelectItem) appendTo(dst []byte, d *Dialect) []byte {
	if s.Star {
		if s.Table != "" {
			dst = append(d.appendIdent(dst, s.Table), '.')
		}
		return append(dst, '*')
	}
	dst = appendExpr(dst, s.Expr, d)
	if s.Alias != "" {
		dst = d.appendIdent(append(dst, " AS "...), s.Alias)
	}
	return dst
}

// TableRef is one entry of the FROM list.
type TableRef struct {
	Table string
	Alias string
}

func (t TableRef) String() string { return t.Render(Generic) }

// Render renders the FROM entry in the dialect.
func (t TableRef) Render(d *Dialect) string { return string(t.appendTo(nil, d)) }

func (t TableRef) appendTo(dst []byte, d *Dialect) []byte {
	dst = d.appendIdent(dst, t.Table)
	if t.Alias != "" {
		dst = d.appendIdent(append(dst, ' '), t.Alias)
	}
	return dst
}

// Name returns the name the table is referred to by in expressions.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string { return o.Render(Generic) }

// Render renders the ORDER BY entry in the dialect.
func (o OrderItem) Render(d *Dialect) string { return string(o.appendTo(nil, d)) }

func (o OrderItem) appendTo(dst []byte, d *Dialect) []byte {
	dst = appendExpr(dst, o.Expr, d)
	if o.Desc {
		dst = append(dst, " DESC"...)
	}
	return dst
}

// Select is a full SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 means no limit
}

// NewSelect returns an empty SELECT with no limit.
func NewSelect() *Select { return &Select{Limit: -1} }

// HasAggregate reports whether any select item or order key contains an
// aggregate function call.
func (s *Select) HasAggregate() bool {
	for _, it := range s.Items {
		if it.Star {
			continue
		}
		if containsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range s.OrderBy {
		if containsAggregate(o.Expr) {
			return true
		}
	}
	return s.Having != nil && containsAggregate(s.Having)
}

func containsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *Binary:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *Not:
		return containsAggregate(x.X)
	case *IsNull:
		return containsAggregate(x.X)
	}
	return false
}

// String renders the statement in the Generic dialect.
func (s *Select) String() string { return s.Render(Generic) }

// Render renders the statement as executable SQL for the dialect, with
// deterministic layout. The output reparses through sqlparse and
// re-renders byte-identically (the per-dialect fixpoint the answer cache
// relies on).
func (s *Select) Render(d *Dialect) string {
	var buf [512]byte
	return string(s.AppendRender(buf[:0], d))
}

// AppendRender appends Render(d) to dst.
func (s *Select) AppendRender(dst []byte, d *Dialect) []byte {
	dst = append(dst, "SELECT "...)
	if s.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	if len(s.Items) == 0 {
		dst = append(dst, '*')
	}
	for i, it := range s.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = it.appendTo(dst, d)
	}
	dst = append(dst, "\nFROM "...)
	for i, t := range s.From {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = t.appendTo(dst, d)
	}
	if s.Where != nil {
		dst = appendExpr(append(dst, "\nWHERE "...), s.Where, d)
	}
	for i, g := range s.GroupBy {
		if i == 0 {
			dst = append(dst, "\nGROUP BY "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = appendExpr(dst, g, d)
	}
	if s.Having != nil {
		dst = appendExpr(append(dst, "\nHAVING "...), s.Having, d)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			dst = append(dst, "\nORDER BY "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = o.appendTo(dst, d)
	}
	if s.Limit >= 0 {
		dst = d.appendLimitClause(append(dst, '\n'), s.Limit)
	}
	return dst
}

// RenderExpr renders a scalar expression in the dialect.
func RenderExpr(e Expr, d *Dialect) string {
	var buf [128]byte
	return string(appendExpr(buf[:0], e, d))
}

func appendExpr(dst []byte, e Expr, d *Dialect) []byte {
	switch x := e.(type) {
	case *Binary:
		if x.Op == OpConcat && d.concatFunc {
			// MySQL spells concatenation CONCAT(...); nested concats
			// flatten into one variadic call, which the parser folds back
			// into the same left-associative tree.
			dst = append(dst, "CONCAT("...)
			for i, a := range flattenConcat(x) {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendExpr(dst, a, d)
			}
			return append(dst, ')')
		}
		dst = appendChild(dst, x.L, x.Op, d, needsParens)
		dst = append(append(append(dst, ' '), x.Op.String()...), ' ')
		return appendChild(dst, x.R, x.Op, d, needsParensRight)
	case *Not:
		return append(appendExpr(append(dst, "NOT ("...), x.X, d), ')')
	case *IsNull:
		// The grammar's IS NULL operand is an additive expression:
		// anything looser (comparisons, AND/OR, NOT, a nested IS NULL)
		// must be parenthesized or the output reparses differently
		// ("a OR b IS NULL" binds as a OR (b IS NULL)).
		if needsParensIsNull(x.X) {
			dst = append(appendExpr(append(dst, '('), x.X, d), ')')
		} else {
			dst = appendExpr(dst, x.X, d)
		}
		if x.Neg {
			return append(dst, " IS NOT NULL"...)
		}
		return append(dst, " IS NULL"...)
	case *ColumnRef:
		if x.Table != "" {
			dst = append(d.appendIdent(dst, x.Table), '.')
		}
		return d.appendIdent(dst, x.Column)
	case *Literal:
		return x.appendTo(dst, d)
	case *Param:
		return d.appendPlaceholder(dst, x.Ordinal)
	case *FuncCall:
		dst = append(dst, x.Name...)
		if x.Star {
			return append(dst, "(*)"...)
		}
		dst = append(dst, '(')
		for i, a := range x.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, a, d)
		}
		return append(dst, ')')
	default:
		return fmt.Appendf(dst, "%v", e)
	}
}

func appendChild(dst []byte, child Expr, parent BinOp, d *Dialect, parens func(Expr, BinOp) bool) []byte {
	if parens(child, parent) {
		return append(appendExpr(append(dst, '('), child, d), ')')
	}
	return appendExpr(dst, child, d)
}

// needsParensIsNull reports whether e, as the operand of IS [NOT] NULL,
// binds looser than the additive level the grammar parses there.
func needsParensIsNull(e Expr) bool {
	switch x := e.(type) {
	case *Binary:
		return precedence(x.Op) < precedence(OpAdd)
	case *Not, *IsNull:
		return true
	}
	return false
}

// flattenConcat collects the leaves of a concat tree in order.
func flattenConcat(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpConcat {
		return append(flattenConcat(b.L), flattenConcat(b.R)...)
	}
	return []Expr{e}
}

// AndAll combines the expressions with AND, skipping nils. It returns nil
// when no expressions remain.
func AndAll(exprs ...Expr) Expr {
	var acc Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if acc == nil {
			acc = e
			continue
		}
		acc = &Binary{Op: OpAnd, L: acc, R: e}
	}
	return acc
}

// Conjuncts flattens a tree of ANDs into its leaf conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// ColumnRefs returns every column reference in the expression, in
// depth-first order.
func ColumnRefs(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColumnRef:
			refs = append(refs, x)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return refs
}
