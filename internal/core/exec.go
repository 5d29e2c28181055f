package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"soda/internal/backend"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// snippetStep executes one solution with the snippet row cap and stores
// the rows (or the error) on the solution.
func (s *System) snippetStep(ctx context.Context, sol *Solution) {
	res, err := s.exec(ctx, sol, s.Opt.SnippetRows)
	if err != nil {
		sol.SnippetErr = err.Error()
		sol.snippetCut = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		return
	}
	sol.Snippet = res
}

// forEachSolution applies fn to every solution across up to
// Opt.Parallelism workers; the snippet step is its one user. fn must only
// mutate its own solution. Solutions are handed out atomically and keep
// their slice positions, so the output is byte-identical to a sequential
// run.
func (s *System) forEachSolution(sols []*Solution, fn func(*Solution)) {
	n := len(sols)
	workers := min(s.Opt.Parallelism, n)
	if workers <= 1 {
		for _, sol := range sols {
			fn(sol)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A panic in a bare worker goroutine would kill the whole
			// process (the daemon serves many users off one System);
			// re-panic on the calling goroutine instead, where net/http's
			// per-request recovery applies, matching sequential behaviour.
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(sols[i])
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Execute runs a solution's generated SQL through the text parser and
// the backend, proving the statement is executable SQL text, not just an
// AST. The text is parsed in the solution's dialect — the same round
// trip a real warehouse client would perform. An approved solution
// (saved query) instead goes through the backend's prepared-statement
// path with its extracted bindings: the values never touch the SQL text.
// ctx carries cancellation and the request's trace-span collector.
func (s *System) Execute(ctx context.Context, sol *Solution) (*backend.Result, error) {
	return s.exec(ctx, sol, 0)
}

// exec is the one way a solution reaches the backend — Execute, Snippet
// and the pipeline's snippet step all come through here. rowCap > 0 caps
// the result (snippets); 0 runs the statement as generated.
func (s *System) exec(ctx context.Context, sol *Solution, rowCap int) (*backend.Result, error) {
	if sol.SQL == nil {
		return nil, fmt.Errorf("core: solution has no SQL")
	}
	if sol.Approved {
		return s.execApproved(ctx, sol, rowCap)
	}
	sel, err := sqlparse.ParseDialect(sol.SQLText(), sol.dialect())
	if err != nil {
		return nil, fmt.Errorf("core: generated SQL does not reparse: %w", err)
	}
	if rowCap > 0 && (sel.Limit < 0 || sel.Limit > rowCap) {
		sel.Limit = rowCap
	}
	return s.runSQL(ctx, sel)
}

// ExecSQL parses and runs an arbitrary statement in the supported SQL
// subset against the system's backend — used by the exploration
// workflows of §5.3.2. The statement is read in dialect d; nil means the
// System's configured dialect.
func (s *System) ExecSQL(ctx context.Context, sql string, d *sqlast.Dialect) (*backend.Result, error) {
	if d == nil {
		d = s.Opt.Dialect
	}
	sel, err := sqlparse.ParseDialect(sql, d)
	if err != nil {
		return nil, err
	}
	return s.runSQL(ctx, sel)
}

// Snippet returns a solution's result snippet (paper: "result snippets
// (up to twenty tuples)"). Rows cached by a snippet search are served
// as-is — zero SQL executions; otherwise the statement is executed with
// the snippet row cap.
func (s *System) Snippet(sol *Solution) (*backend.Result, error) {
	if sol.Snippet != nil {
		return sol.Snippet, nil
	}
	if sol.SnippetErr != "" {
		return nil, fmt.Errorf("%s", sol.SnippetErr)
	}
	return s.exec(context.Background(), sol, s.Opt.SnippetRows)
}

// runSQL executes a parsed statement on the backend, with per-backend
// latency and error accounting and a "backend:exec" span on the
// request's trace (when ctx carries one).
func (s *System) runSQL(ctx context.Context, sel *sqlast.Select) (*backend.Result, error) {
	m := s.metrics
	return instrumentedExec(ctx, "backend:exec", m.execTotal, m.execErrors, m.execSeconds, func() (*backend.Result, error) {
		return s.Backend.Exec(ctx, sel)
	})
}

// ExecCount reports how many SQL statements the backend has executed on
// behalf of this System (snippets, Execute, ExecSQL). Answer-cache hits
// do not execute anything, so the counter makes snippet caching
// observable — per backend, since each executor counts its own work.
func (s *System) ExecCount() uint64 { return s.Backend.ExecCount() }
