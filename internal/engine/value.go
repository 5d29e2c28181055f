// Package engine is the in-memory relational engine that stands in for the
// paper's Oracle/MySQL/Derby back-ends (§5.1.2). It stores typed tables,
// executes the sqlast SQL subset (multi-table joins, predicates, LIKE,
// aggregates, GROUP BY, ORDER BY, LIMIT) with hash-join planning, and
// returns result sets that the evaluation harness compares tuple-by-tuple
// against gold-standard results for precision/recall (§5.2.1).
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Type enumerates column types.
type Type uint8

// Column types.
const (
	TString Type = iota
	TInt
	TFloat
	TDate
	TBool
)

func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TDate:
		return "date"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ValueKind enumerates runtime value kinds; it is Type plus NULL.
type ValueKind uint8

// Value kinds.
const (
	KNull ValueKind = iota
	KString
	KInt
	KFloat
	KDate
	KBool
)

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Kind ValueKind
	S    string
	I    int64
	F    float64
	T    time.Time
	B    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KString, S: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{Kind: KFloat, F: f} }

// Date returns a date value truncated to the day (UTC).
func Date(y int, m time.Month, d int) Value {
	return Value{Kind: KDate, T: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}
}

// DateOf truncates t to the day.
func DateOf(t time.Time) Value {
	return Value{Kind: KDate, T: time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)}
}

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KBool, B: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// String renders the value for display and for result-set comparison keys.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KString:
		return v.S
	}
	var buf [32]byte
	return string(v.appendScalar(buf[:0]))
}

// AppendString appends String() to dst.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind {
	case KNull:
		return append(dst, "NULL"...)
	case KString:
		return append(dst, v.S...)
	}
	return v.appendScalar(dst)
}

// appendScalar appends the display form of a number, a date or a bool.
func (v Value) appendScalar(dst []byte) []byte {
	switch v.Kind {
	case KBool:
		return strconv.AppendBool(dst, v.B)
	case KInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KDate:
		return v.T.AppendFormat(dst, "2006-01-02")
	}
	return append(dst, '?')
}

// Key returns a canonical encoding used for grouping and set comparison.
// It is injective across kinds (numeric 1 and string "1" differ), except
// that ints and floats representing the same number compare equal, matching
// SQL numeric comparison semantics.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v.Key() to dst.
func (v Value) appendKey(dst []byte) []byte {
	switch v.Kind {
	case KNull:
		return append(dst, "n:"...)
	case KString:
		return append(append(dst, "s:"...), v.S...)
	case KInt, KFloat:
		f, _ := v.numeric()
		return strconv.AppendFloat(append(dst, "f:"...), f, 'g', -1, 64)
	case KDate:
		return v.appendScalar(append(dst, "d:"...))
	case KBool:
		if v.B {
			return append(dst, "b:1"...)
		}
		return append(dst, "b:0"...)
	}
	return append(dst, '?')
}

// numeric returns the value as float64 if it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KInt:
		return float64(v.I), true
	case KFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Compare compares two non-null values of compatible kinds. It returns
// (-1|0|1, true), or (0, false) when the kinds are incomparable. Numeric
// kinds are mutually comparable; a string compares to a date by parsing
// (warehouses routinely store ISO dates in text columns, and the paper's
// generated SQL compares birthday = 1981-04-23 directly).
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if af, ok := a.numeric(); ok {
		if bf, ok := b.numeric(); ok {
			return cmpFloat(af, bf), true
		}
		return 0, false
	}
	switch a.Kind {
	case KString:
		switch b.Kind {
		case KString:
			return strings.Compare(a.S, b.S), true
		case KDate:
			if t, err := time.Parse("2006-01-02", a.S); err == nil {
				return cmpTime(t, b.T), true
			}
			return 0, false
		}
	case KDate:
		switch b.Kind {
		case KDate:
			return cmpTime(a.T, b.T), true
		case KString:
			if t, err := time.Parse("2006-01-02", b.S); err == nil {
				return cmpTime(a.T, t), true
			}
			return 0, false
		}
	case KBool:
		if b.Kind == KBool {
			return cmpBool(a.B, b.B), true
		}
	}
	return 0, false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpTime(a, b time.Time) int {
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Tristate is SQL three-valued logic.
type Tristate uint8

// Tristate values.
const (
	False Tristate = iota
	True
	Unknown
)

// And implements three-valued AND.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or implements three-valued OR.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not implements three-valued NOT.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// tristate converts a bool to Tristate.
func tristate(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively (the paper's keyword search is case-insensitive, and
// warehouse text lookups follow suit).
func likeMatch(s, pat string) bool {
	return likeRunes([]rune(strings.ToLower(s)), []rune(strings.ToLower(pat)))
}

func likeRunes(s, pat []rune) bool {
	// Iterative matcher with backtracking on the last %.
	var si, pi int
	star := -1
	starSi := 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}
