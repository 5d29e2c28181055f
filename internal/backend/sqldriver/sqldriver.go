// Package sqldriver registers "sodalite", an in-process database/sql
// driver backed by the reference engine. It is the hermetic stand-in for
// SQLite in this repository: the container ships no cgo SQLite and no
// third-party drivers, but conformance tests still need a genuinely
// separate execution path — SQL arriving as *text* over database/sql,
// re-parsed by sqlparse and executed against a database populated
// through CREATE TABLE + INSERT, rather than ASTs executed in place.
// Everything the sqldb backend renders therefore round-trips the same
// way it would against a real warehouse.
//
// DSN syntax:
//
//	name              a process-shared named database ("minibank")
//	:memory:          a private database per sql.DB (like SQLite)
//	name?dialect=db2  the SQL dialect arriving statements are written in
//
// Statements are executed one at a time (no transactions — the loader
// and executor never use either); SELECTs run under a read lock, DDL/DML
// under a write lock, so one database can serve concurrent readers.
// SELECTs may carry placeholders (? or $N, per the DSN dialect); the
// engine binds the arguments at evaluation time.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"soda/internal/engine"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// DriverName is the name registered with database/sql.
const DriverName = "sodalite"

func init() { sql.Register(DriverName, Driver{}) }

// instance is one database: an engine dataset plus its lock.
type instance struct {
	mu sync.RWMutex
	db *engine.DB
}

var (
	registryMu sync.Mutex
	registry   = map[string]*instance{}
)

// Reset drops the named process-shared database so the next connection
// starts empty. Tests use it; ":memory:" databases never register.
func Reset(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, name)
}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open connects via the default connector.
func (d Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once; every connection of one sql.DB then
// shares the same database instance (so ":memory:" behaves like SQLite's
// shared-cache memory database within a pool, not one database per
// pooled connection).
func (d Driver) OpenConnector(dsn string) (driver.Connector, error) {
	name := dsn
	dialect := sqlast.Generic
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		name = dsn[:i]
		for _, kv := range strings.Split(dsn[i+1:], "&") {
			k, v, _ := strings.Cut(kv, "=")
			switch k {
			case "dialect":
				dl, ok := sqlast.DialectByName(v)
				if !ok {
					return nil, fmt.Errorf("sodalite: unknown dialect %q in DSN", v)
				}
				dialect = dl
			case "":
			default:
				return nil, fmt.Errorf("sodalite: unknown DSN parameter %q", k)
			}
		}
	}
	if name == "" {
		return nil, fmt.Errorf("sodalite: empty database name in DSN %q", dsn)
	}
	var inst *instance
	if name == ":memory:" {
		inst = &instance{db: engine.NewDB()}
	} else {
		registryMu.Lock()
		inst = registry[name]
		if inst == nil {
			inst = &instance{db: engine.NewDB()}
			registry[name] = inst
		}
		registryMu.Unlock()
	}
	return &connector{drv: d, inst: inst, dialect: dialect}, nil
}

type connector struct {
	drv     Driver
	inst    *instance
	dialect *sqlast.Dialect
}

func (c *connector) Connect(context.Context) (driver.Conn, error) {
	return &conn{inst: c.inst, dialect: c.dialect}, nil
}

func (c *connector) Driver() driver.Driver { return c.drv }

// conn is one connection; all state lives on the shared instance.
type conn struct {
	inst    *instance
	dialect *sqlast.Dialect
}

func (c *conn) Close() error { return nil }

func (c *conn) Ping(context.Context) error { return nil }

func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sodalite: transactions not supported")
}

// Prepare satisfies driver.Conn; the statement just defers to the
// connection's query path at execution time.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, query: query}, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	return c.run(ctx, query, args)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	rows, err := c.run(ctx, query, args)
	if err != nil {
		return nil, err
	}
	n := int64(len(rows.(*resultRows).rows))
	return affected(n), nil
}

// run parses the statement text in the connection's dialect and executes
// it against the shared instance. Arguments bind to the statement's
// placeholders by ordinal (each ? is its own ordinal; $N binds argument
// N), exactly as the engine evaluates Param nodes. A SELECT stops when ctx
// is cancelled.
func (c *conn) run(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	st, err := sqlparse.ParseStatementDialect(query, c.dialect)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *sqlast.Select:
		params, err := bindArgs(args)
		if err != nil {
			return nil, err
		}
		c.inst.mu.RLock()
		defer c.inst.mu.RUnlock()
		res, err := engine.ExecParams(ctx, c.inst.db, st, params)
		if err != nil {
			return nil, err
		}
		return &resultRows{cols: res.Columns, rows: res.Rows}, nil
	case *sqlparse.CreateTable:
		if len(args) > 0 {
			return nil, fmt.Errorf("sodalite: placeholders in DDL not supported")
		}
		c.inst.mu.Lock()
		defer c.inst.mu.Unlock()
		if err := createTable(c.inst.db, st); err != nil {
			return nil, err
		}
		return &resultRows{}, nil
	case *sqlparse.Insert:
		if len(args) > 0 {
			return nil, fmt.Errorf("sodalite: placeholders in INSERT not supported")
		}
		c.inst.mu.Lock()
		defer c.inst.mu.Unlock()
		n, err := insertRows(c.inst.db, st)
		if err != nil {
			return nil, err
		}
		return &resultRows{rows: make([][]engine.Value, n)}, nil
	default:
		return nil, fmt.Errorf("sodalite: unsupported statement")
	}
}

// createTable maps the DDL onto an engine table. Type names follow SQL
// conventions: anything CHAR/TEXT-like is a string, INT-like an integer,
// DOUBLE/FLOAT/REAL/NUMERIC a float, DATE a date, BOOL a boolean.
func createTable(db *engine.DB, ct *sqlparse.CreateTable) (err error) {
	defer recoverTo(&err) // duplicate table/column panics become errors
	cols := make([]engine.Column, 0, len(ct.Cols))
	for _, cd := range ct.Cols {
		t, terr := columnType(cd.Type)
		if terr != nil {
			return terr
		}
		cols = append(cols, engine.Column{Name: cd.Name, Type: t})
	}
	db.Create(ct.Name, cols...)
	return nil
}

func columnType(typ string) (engine.Type, error) {
	u := strings.ToUpper(typ)
	switch {
	case strings.Contains(u, "BOOL"):
		return engine.TBool, nil
	case strings.Contains(u, "CHAR"), strings.Contains(u, "TEXT"), strings.Contains(u, "CLOB"):
		return engine.TString, nil
	case strings.Contains(u, "INT"):
		return engine.TInt, nil
	case strings.Contains(u, "DOUBLE"), strings.Contains(u, "FLOAT"),
		strings.Contains(u, "REAL"), strings.Contains(u, "DECIMAL"), strings.Contains(u, "NUMERIC"):
		return engine.TFloat, nil
	case strings.Contains(u, "DATE"), strings.Contains(u, "TIMESTAMP"):
		return engine.TDate, nil
	default:
		return 0, fmt.Errorf("sodalite: unsupported column type %q", typ)
	}
}

// insertRows evaluates the literal rows and appends them, reordering an
// explicit column list into table order (missing columns become NULL).
func insertRows(db *engine.DB, ins *sqlparse.Insert) (n int, err error) {
	defer recoverTo(&err) // type-mismatch panics in Insert become errors
	tbl := db.Table(ins.Table)
	if tbl == nil {
		return 0, fmt.Errorf("sodalite: unknown table %s", ins.Table)
	}
	// Map the statement's column order onto the table's.
	target := make([]int, len(ins.Columns))
	for i, name := range ins.Columns {
		ci := tbl.ColIndex(name)
		if ci < 0 {
			return 0, fmt.Errorf("sodalite: unknown column %s.%s", ins.Table, name)
		}
		target[i] = ci
	}
	for _, exprRow := range ins.Rows {
		if len(ins.Columns) == 0 && len(exprRow) != len(tbl.Cols) {
			return 0, fmt.Errorf("sodalite: %s: %d values for %d columns", ins.Table, len(exprRow), len(tbl.Cols))
		}
		row := make([]engine.Value, len(tbl.Cols))
		for i, e := range exprRow {
			v, verr := literalValue(e)
			if verr != nil {
				return 0, verr
			}
			ci := i
			if len(ins.Columns) > 0 {
				ci = target[i]
			}
			row[ci] = coerce(v, tbl.Cols[ci].Type)
		}
		tbl.Insert(row...)
		n++
	}
	return n, nil
}

// literalValue evaluates a constant expression to a runtime value.
func literalValue(e sqlast.Expr) (engine.Value, error) {
	lit, ok := e.(*sqlast.Literal)
	if !ok {
		return engine.Null(), fmt.Errorf("sodalite: INSERT values must be literals, got %s", e)
	}
	switch lit.Kind {
	case sqlast.LitString:
		return engine.Str(lit.S), nil
	case sqlast.LitInt:
		return engine.Int(lit.I), nil
	case sqlast.LitFloat:
		return engine.Float(lit.F), nil
	case sqlast.LitDate:
		return engine.DateOf(lit.T), nil
	case sqlast.LitBool:
		return engine.Bool(lit.B), nil
	default:
		return engine.Null(), nil
	}
}

// coerce bridges the representational gaps between dialect literals and
// column types: BOOLEAN columns accept 1/0 (the DB2 printer's booleans)
// and DATE columns accept ISO strings.
func coerce(v engine.Value, t engine.Type) engine.Value {
	switch {
	case t == engine.TBool && v.Kind == engine.KInt:
		return engine.Bool(v.I != 0)
	case t == engine.TDate && v.Kind == engine.KString:
		if tm, err := time.Parse("2006-01-02", v.S); err == nil {
			return engine.DateOf(tm)
		}
	case t == engine.TFloat && v.Kind == engine.KInt:
		return engine.Float(float64(v.I))
	}
	return v
}

func recoverTo(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("sodalite: %v", r)
	}
}

// bindArgs converts the driver's positional arguments into the engine's
// binding slice: params[i] binds placeholder ordinal i+1.
func bindArgs(args []driver.NamedValue) ([]engine.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make([]engine.Value, len(args))
	for _, a := range args {
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("sodalite: argument ordinal %d out of range", a.Ordinal)
		}
		v, err := engineValue(a.Value)
		if err != nil {
			return nil, err
		}
		params[a.Ordinal-1] = v
	}
	return params, nil
}

// engineValue converts a normalised driver argument to an engine value.
func engineValue(v any) (engine.Value, error) {
	switch x := v.(type) {
	case nil:
		return engine.Null(), nil
	case int64:
		return engine.Int(x), nil
	case float64:
		return engine.Float(x), nil
	case bool:
		return engine.Bool(x), nil
	case time.Time:
		return engine.DateOf(x), nil
	case []byte:
		return engine.Str(string(x)), nil
	case string:
		return engine.Str(x), nil
	default:
		return engine.Null(), fmt.Errorf("sodalite: unsupported argument type %T", v)
	}
}

// stmt is the prepared-statement fallback path. NumInput reports -1 so
// database/sql skips its argument-count check — the placeholder count is
// only known after parsing, which happens at execution time.
type stmt struct {
	c     *conn
	query string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.ExecContext(context.Background(), s.query, named(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.QueryContext(context.Background(), s.query, named(args))
}

// named adapts legacy positional driver values to NamedValue ordinals.
func named(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

type affected int64

func (a affected) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sodalite: no insert ids")
}
func (a affected) RowsAffected() (int64, error) { return int64(a), nil }

// resultRows adapts an engine result to driver.Rows.
type resultRows struct {
	cols []string
	rows [][]engine.Value
	next int
}

func (r *resultRows) Columns() []string { return r.cols }
func (r *resultRows) Close() error      { return nil }

func (r *resultRows) Next(dest []driver.Value) error {
	if r.next >= len(r.rows) {
		return io.EOF
	}
	for i, v := range r.rows[r.next] {
		dest[i] = driverValue(v)
	}
	r.next++
	return nil
}

// driverValue converts an engine value to the driver's wire types.
func driverValue(v engine.Value) driver.Value {
	switch v.Kind {
	case engine.KString:
		return v.S
	case engine.KInt:
		return v.I
	case engine.KFloat:
		return v.F
	case engine.KDate:
		return v.T
	case engine.KBool:
		return v.B
	default:
		return nil
	}
}
