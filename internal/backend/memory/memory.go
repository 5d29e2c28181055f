// Package memory is the in-process execution backend: it wraps the
// in-memory reference engine (internal/engine) behind the
// backend.Executor seam. It is the default backend — hermetic,
// dependency-free, and the semantics oracle the sqldb backend's
// conformance tests compare against.
package memory

import (
	"context"
	"fmt"
	"sync/atomic"

	"soda/internal/backend"
	"soda/internal/engine"
	"soda/internal/sqlast"
)

// Executor executes statements directly against an in-memory dataset.
type Executor struct {
	db    *backend.DB
	execs atomic.Uint64
}

// New wraps the dataset in an Executor.
func New(db *backend.DB) *Executor { return &Executor{db: db} }

// Name identifies the backend. Every memory executor owns its dataset
// privately, so the constant name is safe: two memory executors never
// share an answer cache.
func (e *Executor) Name() string { return "memory" }

// Exec runs the statement in the engine until it completes or ctx is
// cancelled.
func (e *Executor) Exec(ctx context.Context, sel *sqlast.Select) (*backend.Result, error) {
	e.execs.Add(1)
	return engine.ExecParams(ctx, e.db, sel, nil)
}

// prepared is the memory backend's prepared statement: the AST itself,
// executed with eval-time binding (no substitution into the tree).
type prepared struct {
	sel   *sqlast.Select
	text  string
	names []string
}

func (p *prepared) SQL() string         { return p.text }
func (p *prepared) BindNames() []string { return append([]string(nil), p.names...) }
func (p *prepared) Close() error        { return nil }

// Prepare readies a parameterized statement. The engine executes the AST
// in place, binding arguments by placeholder ordinal at evaluation time,
// so the binding order is the statement's ordinal order.
func (e *Executor) Prepare(_ context.Context, sel *sqlast.Select) (backend.PreparedQuery, error) {
	return &prepared{sel: sel, text: sel.Render(sqlast.Generic), names: sqlast.BindNamesByOrdinal(sel)}, nil
}

// ExecPrepared runs a prepared statement with eval-time bindings.
func (e *Executor) ExecPrepared(ctx context.Context, pq backend.PreparedQuery, args []backend.Value) (*backend.Result, error) {
	p, ok := pq.(*prepared)
	if !ok {
		return nil, fmt.Errorf("memory: prepared statement belongs to another backend")
	}
	if len(args) != len(p.names) {
		return nil, fmt.Errorf("memory: %d argument(s) for %d placeholder(s)", len(args), len(p.names))
	}
	e.execs.Add(1)
	return engine.ExecParams(ctx, e.db, p.sel, args)
}

// Catalog exposes the dataset's schema.
func (e *Executor) Catalog() backend.Catalog { return backend.DBCatalog{DB: e.db} }

// ExecCount reports how many statements this executor has run.
func (e *Executor) ExecCount() uint64 { return e.execs.Load() }

// DB exposes the backing dataset (the corpus itself).
func (e *Executor) DB() *backend.DB { return e.db }

// ExplainSQL renders the plan the engine runs for the statement — scan
// pushdowns with rows kept, join order, residuals — running the scans
// but not the joins.
func (e *Executor) ExplainSQL(sel *sqlast.Select) (string, error) {
	return Explain(e.db, sel)
}

// Exec is the package-level convenience for one-off executions against a
// dataset (gold-standard evaluation, the baseline harness) that don't
// need a long-lived executor.
func Exec(db *backend.DB, sel *sqlast.Select) (*backend.Result, error) {
	return engine.Exec(db, sel)
}

// Explain renders the engine's execution plan for a statement.
func Explain(db *backend.DB, sel *sqlast.Select) (string, error) {
	plan, err := engine.Explain(db, sel)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}
