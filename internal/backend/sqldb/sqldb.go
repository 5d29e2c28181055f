// Package sqldb executes SODA's generated statements on any database
// reachable through database/sql — the seam that turns the pipeline from
// a simulator into the warehouse front-end the paper describes. Each
// statement is rendered in the executor's SQL dialect (the same printers
// the answer pages show), shipped as text, and the rows are scanned back
// into the shared backend.Result shape the rest of the system speaks.
//
// Two drivers ship in-tree: "sodalite" (backend/sqldriver), the hermetic
// in-process database used by tests and local runs, and "pgwire"
// (backend/pgwire), a minimal Postgres client for real warehouses.
// Builds that link other database/sql drivers (MySQL, DB2) can pass
// their names to Open unchanged.
package sqldb

import (
	"context"
	"database/sql"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/backend"
	"soda/internal/sqlast"
)

// Executor drives one database/sql connection pool.
type Executor struct {
	db      *sql.DB
	dialect *sqlast.Dialect
	name    string
	execs   atomic.Uint64

	mu      sync.RWMutex
	catalog backend.Catalog
}

// Open connects to dsn through the named driver and renders statements
// in the given dialect (nil = generic). The connection is verified with
// a short ping so a bad DSN fails at startup, not mid-search.
func Open(driverName, dsn string, d *sqlast.Dialect) (*Executor, error) {
	db, err := sql.Open(driverName, dsn)
	if err != nil {
		return nil, fmt.Errorf("sqldb: open %s: %w", driverName, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := db.PingContext(ctx); err != nil {
		db.Close()
		return nil, fmt.Errorf("sqldb: connect %s: %w", driverName, err)
	}
	return New(db, driverName, dsn, d), nil
}

// New wraps an existing pool. The name mixes the driver and a DSN hash:
// executors on different databases must never share answer-cache keys,
// but the raw DSN may hold credentials and stays out of diagnostics.
func New(db *sql.DB, driverName, dsn string, d *sqlast.Dialect) *Executor {
	if d == nil {
		d = sqlast.Generic
	}
	h := fnv.New32a()
	h.Write([]byte(dsn))
	return &Executor{
		db:      db,
		dialect: d,
		name:    fmt.Sprintf("sqldb:%s:%08x", driverName, h.Sum32()),
		catalog: backend.EmptyCatalog{},
	}
}

// Name identifies the backend ("sqldb:<driver>:<dsn-hash>").
func (e *Executor) Name() string { return e.name }

// Dialect is the SQL dialect statements are rendered in.
func (e *Executor) Dialect() *sqlast.Dialect { return e.dialect }

// DB exposes the underlying pool.
func (e *Executor) DB() *sql.DB { return e.db }

// Close releases the connection pool.
func (e *Executor) Close() error { return e.db.Close() }

// ExecCount reports how many statements this executor has sent.
func (e *Executor) ExecCount() uint64 { return e.execs.Load() }

// Catalog describes the loaded corpus schema, or an empty catalog when
// the executor was attached to a pre-existing database (UseCorpus tells
// it the schema without loading).
func (e *Executor) Catalog() backend.Catalog {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.catalog
}

// UseCorpus declares the corpus whose schema the target database holds,
// without loading anything — for databases populated out of band.
func (e *Executor) UseCorpus(db *backend.DB) {
	e.mu.Lock()
	e.catalog = backend.DBCatalog{DB: db}
	e.mu.Unlock()
}

// Exec renders the statement in the executor's dialect, runs it and
// scans the rows back.
func (e *Executor) Exec(ctx context.Context, sel *sqlast.Select) (*backend.Result, error) {
	text := sel.Render(e.dialect)
	e.execs.Add(1)
	rows, err := e.db.QueryContext(ctx, text)
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	return materialize(rows)
}

// prepared wraps a database/sql prepared statement together with its
// binding order in the executor's dialect.
type prepared struct {
	stmt  *sql.Stmt
	text  string
	names []string
	owner *Executor
}

func (p *prepared) SQL() string         { return p.text }
func (p *prepared) BindNames() []string { return append([]string(nil), p.names...) }
func (p *prepared) Close() error        { return p.stmt.Close() }

// Prepare renders the statement in the executor's dialect and prepares
// it on the pool. The binding order follows the dialect: one argument
// per ? occurrence, or one per distinct $N ordinal on Postgres.
func (e *Executor) Prepare(ctx context.Context, sel *sqlast.Select) (backend.PreparedQuery, error) {
	text := sel.Render(e.dialect)
	stmt, err := e.db.PrepareContext(ctx, text)
	if err != nil {
		return nil, fmt.Errorf("sqldb: prepare: %w", err)
	}
	return &prepared{stmt: stmt, text: text, names: e.dialect.BindNames(sel), owner: e}, nil
}

// ExecPrepared runs a prepared statement, shipping the arguments to the
// database separately from the SQL text (the driver's parameter path —
// values are never interpolated into the statement).
func (e *Executor) ExecPrepared(ctx context.Context, pq backend.PreparedQuery, args []backend.Value) (*backend.Result, error) {
	p, ok := pq.(*prepared)
	if !ok || p.owner != e {
		return nil, fmt.Errorf("sqldb: prepared statement belongs to another backend")
	}
	if len(args) != len(p.names) {
		return nil, fmt.Errorf("sqldb: %d argument(s) for %d placeholder(s)", len(args), len(p.names))
	}
	e.execs.Add(1)
	driverArgs := make([]any, len(args))
	for i, v := range args {
		driverArgs[i] = driverArg(v)
	}
	rows, err := p.stmt.QueryContext(ctx, driverArgs...)
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	return materialize(rows)
}

// driverArg converts a Value into what database/sql drivers accept.
func driverArg(v backend.Value) any {
	switch v.Kind {
	case backend.KNull:
		return nil
	case backend.KInt:
		return v.I
	case backend.KFloat:
		return v.F
	case backend.KBool:
		return v.B
	case backend.KDate:
		return v.T
	default:
		return v.S
	}
}

// materialize scans a row set into the shared Result shape and closes it.
func materialize(rows *sql.Rows) (*backend.Result, error) {
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	res := &backend.Result{Columns: cols}
	dest := make([]any, len(cols))
	for i := range dest {
		dest[i] = new(any)
	}
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return nil, fmt.Errorf("sqldb: scan: %w", err)
		}
		row := make([]backend.Value, len(cols))
		for i := range dest {
			row[i] = scanValue(*dest[i].(*any))
		}
		res.Rows = append(res.Rows, row)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	return res, nil
}

// scanValue maps the driver's wire types onto the shared Value type.
// Drivers differ in how they surface dates and decimals — time.Time,
// ISO strings, []byte — so the mapping is by shape, with date-shaped
// strings kept as strings (Value comparison treats ISO date strings and
// dates as equal, matching warehouses that store dates in text).
func scanValue(v any) backend.Value {
	switch x := v.(type) {
	case nil:
		return backend.Null()
	case int64:
		return backend.Int(x)
	case float64:
		return backend.Float(x)
	case bool:
		return backend.Bool(x)
	case time.Time:
		return backend.DateOf(x)
	case []byte:
		return backend.Str(string(x))
	case string:
		return backend.Str(x)
	default:
		return backend.Str(fmt.Sprint(x))
	}
}

// Load creates the corpus schema in the target database and inserts
// every row (batched), then adopts the corpus as the executor's catalog.
// It is meant for empty targets: re-loading over existing tables fails
// on the first CREATE TABLE.
func (e *Executor) Load(ctx context.Context, db *backend.DB) error {
	for _, stmt := range backend.Script(db, e.dialect, backend.DefaultInsertBatch) {
		if _, err := e.db.ExecContext(ctx, stmt); err != nil {
			return fmt.Errorf("sqldb: load: %w (statement: %.80s)", err, stmt)
		}
	}
	e.UseCorpus(db)
	return nil
}

// probeTables partitions the corpus tables into those the target can
// already answer a zero-row SELECT for and those it cannot.
func (e *Executor) probeTables(ctx context.Context, db *backend.DB) (present, missing []string) {
	for _, name := range db.TableNames() {
		probe := sqlast.NewSelect()
		probe.Items = []sqlast.SelectItem{{Star: true}}
		probe.From = []sqlast.TableRef{{Table: name}}
		probe.Limit = 0
		rows, err := e.db.QueryContext(ctx, probe.Render(e.dialect))
		if err != nil {
			missing = append(missing, name)
			continue
		}
		rows.Close()
		present = append(present, name)
	}
	return present, missing
}

// EnsureLoaded loads the corpus unless its tables already exist, and in
// either case adopts the corpus schema as the catalog. A target holding
// only part of the corpus (a load killed halfway, or probe errors
// against a populated warehouse) is reported instead of being silently
// loaded over or silently accepted — re-run with a forced Load after
// clearing the target.
func (e *Executor) EnsureLoaded(ctx context.Context, db *backend.DB) error {
	present, missing := e.probeTables(ctx, db)
	switch {
	case len(missing) == 0:
		e.UseCorpus(db)
		return nil
	case len(present) == 0:
		return e.Load(ctx, db)
	default:
		return fmt.Errorf("sqldb: target holds %d of %d corpus tables (missing %s, …) — partial load or probe failure; clear the target or force a load",
			len(present), len(present)+len(missing), missing[0])
	}
}
