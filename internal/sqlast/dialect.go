package sqlast

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// A Dialect controls the SQL surface syntax the printer emits so that
// generated statements run on a specific warehouse backend, not just in
// the in-memory engine. The paper's deployment targets a real DB2
// warehouse (§7: "By 'executable' statements we mean SQL statements that
// can be executed on the data warehouse"); a single generic printer whose
// quoting and row-limiting syntax no production backend fully accepts
// defeats that point. Four dialects ship: Generic (the engine's native
// subset, also what Postgres accepts), Postgres, MySQL and DB2.
//
// Every dialect's output reparses through package sqlparse, and rendering
// is a per-dialect fixpoint: Render(d) → Parse → Render(d) reproduces the
// text byte for byte. The answer cache keys on rendered SQL, so this
// invariant is what keeps cache keys stable across a round trip.
type Dialect struct {
	name       string
	identQuote byte // identifier quote character: '"' or '`'
	backslash  bool // string literals escape backslash (MySQL)
	fetchFirst bool // FETCH FIRST n ROWS ONLY instead of LIMIT n (DB2)
	concatFunc bool // CONCAT(a, b, ...) instead of a || b (MySQL)
	boolAsInt  bool // 1/0 instead of TRUE/FALSE (DB2 has no bool literals)
	dateFunc   bool // DATE('yyyy-mm-dd') instead of DATE 'yyyy-mm-dd'
	dollarPh   bool // $N parameter placeholders instead of ? (Postgres)
}

// The supported dialects. Generic is the maximally portable form and the
// zero-configuration default; Postgres coincides with it over this SQL
// subset (double-quoted identifiers, LIMIT, ||, standard strings) but is
// named separately so callers can pin intent and future divergences have
// a home. MySQL backtick-quotes identifiers, escapes backslashes in
// strings and spells concatenation CONCAT(...). DB2 has no LIMIT or
// boolean literals: row limiting is FETCH FIRST n ROWS ONLY and TRUE and
// FALSE render as 1 and 0.
var (
	Generic  = &Dialect{name: "generic", identQuote: '"'}
	Postgres = &Dialect{name: "postgres", identQuote: '"', dollarPh: true}
	MySQL    = &Dialect{name: "mysql", identQuote: '`', backslash: true, concatFunc: true, dateFunc: true}
	DB2      = &Dialect{name: "db2", identQuote: '"', fetchFirst: true, boolAsInt: true, dateFunc: true}
)

var dialectsByName = map[string]*Dialect{
	Generic.name:  Generic,
	Postgres.name: Postgres,
	MySQL.name:    MySQL,
	DB2.name:      DB2,
}

// DialectByName resolves a dialect by its lower-case name ("generic",
// "postgres", "mysql", "db2"). The empty string resolves to Generic.
func DialectByName(name string) (*Dialect, bool) {
	if name == "" {
		return Generic, true
	}
	d, ok := dialectsByName[strings.ToLower(name)]
	return d, ok
}

// DialectNames lists the supported dialect names, sorted.
func DialectNames() []string {
	names := make([]string, 0, len(dialectsByName))
	for n := range dialectsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dialects lists the supported dialects in a stable order.
func Dialects() []*Dialect {
	return []*Dialect{Generic, Postgres, MySQL, DB2}
}

// Name returns the dialect's lower-case name.
func (d *Dialect) Name() string { return d.name }

// String implements fmt.Stringer.
func (d *Dialect) String() string { return d.name }

// BackslashStrings reports whether string literals treat backslash as an
// escape character (MySQL's default sql_mode). The parser needs this to
// invert what the printer emitted.
func (d *Dialect) BackslashStrings() bool { return d.backslash }

// reservedWords are identifiers that cannot be emitted bare: the parser's
// own keywords plus common SQL reserved words that real backends refuse
// unquoted (the §5.3 war stories include physical columns named after
// keywords). Kept deliberately broad — quoting a non-reserved word is
// harmless, emitting a reserved one bare produces SQL that sqlparse
// itself rejects.
var reservedWords = map[string]bool{
	// Parser keywords.
	"select": true, "distinct": true, "as": true, "from": true,
	"where": true, "group": true, "by": true, "having": true,
	"order": true, "limit": true, "asc": true, "desc": true,
	"and": true, "or": true, "not": true, "like": true, "is": true,
	"null": true, "between": true, "date": true, "true": true,
	"false": true, "fetch": true, "first": true, "row": true,
	"rows": true, "only": true,
	// Common reserved words across the target backends.
	"all": true, "alter": true, "case": true, "create": true,
	"cross": true, "current_date": true, "delete": true, "drop": true,
	"else": true, "end": true, "exists": true, "for": true,
	"foreign": true, "full": true, "in": true, "index": true,
	"inner": true, "insert": true, "into": true, "join": true,
	"key": true, "left": true, "offset": true, "on": true,
	"outer": true, "primary": true, "references": true, "right": true,
	"set": true, "table": true, "then": true, "time": true,
	"timestamp": true, "union": true, "update": true, "user": true,
	"using": true, "values": true, "view": true, "when": true,
	"with": true,
}

// bareIdent reports whether s can be emitted without quoting in every
// dialect: an ASCII letter or underscore followed by ASCII letters,
// digits and underscores, and not a reserved word. Unicode identifiers
// are quoted — the in-house lexer accepts them bare, but the production
// backends this printer targets do not reliably.
func bareIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return !reservedWords[strings.ToLower(s)]
}

// Ident renders an identifier, quoting it only when required (reserved
// word, spaces, unicode, leading digit, embedded punctuation). Quoting
// only on demand keeps the common case readable and makes rendering a
// fixpoint: a bare identifier reparses bare, a quoted one reparses to the
// same name and is re-quoted by the same policy.
func (d *Dialect) Ident(s string) string {
	if bareIdent(s) {
		return s
	}
	var buf [64]byte
	return string(d.appendIdent(buf[:0], s))
}

// appendIdent appends Ident(s) to dst.
func (d *Dialect) appendIdent(dst []byte, s string) []byte {
	if bareIdent(s) {
		return append(dst, s...)
	}
	q := d.identQuote
	dst = append(dst, q)
	for i := 0; i < len(s); i++ {
		if s[i] == q {
			dst = append(dst, q) // doubled quote escapes itself
		}
		dst = append(dst, s[i])
	}
	return append(dst, q)
}

// StringLiteral renders a string literal with the dialect's escaping:
// embedded quotes double everywhere; MySQL additionally escapes
// backslashes (its default sql_mode treats backslash as an escape
// character, so a bare backslash would corrupt the value).
func (d *Dialect) StringLiteral(s string) string {
	var buf [64]byte
	return string(d.appendStringLiteral(buf[:0], s))
}

// appendStringLiteral appends StringLiteral(s) to dst.
func (d *Dialect) appendStringLiteral(dst []byte, s string) []byte {
	dst = append(dst, '\'')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'':
			dst = append(dst, '\'', '\'')
		case c == '\\' && d.backslash:
			dst = append(dst, '\\', '\\')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\'')
}

// LimitClause renders the row-limiting clause for n rows.
func (d *Dialect) LimitClause(n int) string {
	return string(d.appendLimitClause(nil, n))
}

// appendLimitClause appends LimitClause(n) to dst.
func (d *Dialect) appendLimitClause(dst []byte, n int) []byte {
	if d.fetchFirst {
		dst = strconv.AppendInt(append(dst, "FETCH FIRST "...), int64(n), 10)
		return append(dst, " ROWS ONLY"...)
	}
	return strconv.AppendInt(append(dst, "LIMIT "...), int64(n), 10)
}

// appendPlaceholder appends a parameter placeholder with the given
// 1-based binding ordinal: $N for Postgres, ? for the other dialects.
// Like every rendered form it is a per-dialect fixpoint: $3 reparses to
// ordinal 3 and re-renders as $3; ? reparses to its occurrence ordinal,
// which renders as ? again.
func (d *Dialect) appendPlaceholder(dst []byte, ordinal int) []byte {
	if d.dollarPh {
		return strconv.AppendInt(append(dst, '$'), int64(ordinal), 10)
	}
	return append(dst, '?')
}

// BindNames returns the binding-order parameter names for a statement
// prepared in this dialect: one argument per distinct ordinal where
// placeholders are numbered ($N can repeat in Postgres), one per
// placeholder occurrence in the ?-placeholder dialects (the same named
// parameter appearing twice binds two identical arguments).
func (d *Dialect) BindNames(s *Select) []string {
	if d.dollarPh {
		return BindNamesByOrdinal(s)
	}
	params := ParamsOf(s)
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return names
}

// BindNamesByOrdinal returns the parameter names indexed by binding
// ordinal (names[ord-1]) — the binding order for executors that bind by
// ordinal rather than by placeholder occurrence: numbered-placeholder
// dialects and the in-process engines that evaluate the AST directly.
func BindNamesByOrdinal(s *Select) []string {
	var names []string
	for _, p := range ParamsOf(s) {
		for len(names) < p.Ordinal {
			names = append(names, "")
		}
		if p.Ordinal >= 1 && names[p.Ordinal-1] == "" {
			names[p.Ordinal-1] = p.Name
		}
	}
	return names
}

// appendDateLiteral appends a DATE literal in the dialect's idiom.
func (d *Dialect) appendDateLiteral(dst []byte, t time.Time) []byte {
	if d.dateFunc {
		return append(t.AppendFormat(append(dst, "DATE('"...), "2006-01-02"), "')"...)
	}
	return append(t.AppendFormat(append(dst, "DATE '"...), "2006-01-02"), '\'')
}

// boolLiteral renders a boolean literal; DB2 lacks TRUE/FALSE and gets
// 1/0 (which reparse as integers — the rendered text is still a
// fixpoint, since 1 re-renders as 1).
func (d *Dialect) boolLiteral(b bool) string {
	if d.boolAsInt {
		if b {
			return "1"
		}
		return "0"
	}
	if b {
		return "TRUE"
	}
	return "FALSE"
}
