package soda

// The query-facing API: Search and its variants, the Answer/Result/Rows
// they return, direct SQL execution, and the schema browser.

import (
	"context"
	"fmt"
	"strings"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/queryparse"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
)

// Result is one ranked, executable SQL statement.
type Result struct {
	// SQL is the generated statement text; parse it back or hand it to
	// Execute — it is guaranteed to round-trip.
	SQL string
	// Score is the ranking score from the entry-point heuristic.
	Score float64
	// Tables is the tables-step discovery output (Figure 6); FromTables
	// is the pruned FROM list of the statement.
	Tables     []string
	FromTables []string
	// Joins and Filters describe the statement's WHERE building blocks.
	Joins   []string
	Filters []string
	// Disconnected warns that no join path connected all entry points
	// (the SQL contains a cross product).
	Disconnected bool
	// SnippetRows holds the cached snippet when the search asked for
	// snippets (SearchOptions.Snippets): rows executed once with the
	// analysis and served from the answer cache afterwards. nil when the
	// search did not request snippets — call Snippet() to execute.
	SnippetRows *Rows
	// SnippetError reports why snippet execution failed, when it did.
	SnippetError string

	// Approved marks a result drawn from the saved-query library rather
	// than generated by the pipeline; QueryName is the library key and
	// Params the bindings extracted from the search input (or defaults).
	// The SQL field shows the parameterized statement — Execute and
	// Snippet run it through the backend's prepared-statement path with
	// the bound values, never interpolated into the text.
	Approved  bool
	QueryName string
	Params    []ParamBinding

	sys *core.System
	sol *core.Solution
}

// Execute runs the statement and returns the full result.
func (r *Result) Execute() (*Rows, error) {
	res, err := r.sys.Execute(context.Background(), r.sol)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// Snippet returns the statement's result snippet, like the paper's
// result page ("up to twenty tuples"): rows cached by a snippet search
// are served without executing anything, otherwise the statement runs
// with the snippet row cap. The returned rows are always a private copy
// (cached rows are shared across cache hits).
func (r *Result) Snippet() (*Rows, error) {
	res, err := r.sys.Snippet(r.sol)
	if err != nil {
		return nil, err
	}
	return newRowsCopy(res), nil
}

// Rows is a materialised query result with display helpers.
type Rows struct {
	Columns []string
	Values  [][]backend.Value
}

func newRows(res *backend.Result) *Rows {
	return &Rows{Columns: res.Columns, Values: res.Rows}
}

// newRowsCopy deep-copies an engine result before exposing it. Cached
// snippet rows are shared by every answer-cache hit, and Rows' fields
// are exported and mutable — handing out the shared slices would let
// one caller corrupt the cache for everyone else.
func newRowsCopy(res *backend.Result) *Rows {
	cols := append([]string(nil), res.Columns...)
	vals := make([][]backend.Value, len(res.Rows))
	for i, row := range res.Rows {
		vals[i] = append([]backend.Value(nil), row...)
	}
	return &Rows{Columns: cols, Values: vals}
}

// NumRows reports the row count.
func (r *Rows) NumRows() int { return len(r.Values) }

// String renders an aligned text table.
func (r *Rows) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Values))
	for ri, row := range r.Values {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
			if ci < len(widths) && len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Answer is the outcome of one search: the ranked results plus the
// classification details of Figure 5.
type Answer struct {
	// Complexity is the combinatorial entry-point product (Table 4).
	Complexity int
	// Terms are the recognised lookup terms after longest-combination
	// segmentation; Ignored lists words matching nothing.
	Terms   []string
	Ignored []string
	// Results are the ranked SQL statements, best first.
	Results []*Result

	analysis *core.Analysis
}

// Explain renders the full pipeline trace (Figures 4-6) for the answer.
func (a *Answer) Explain() string { return core.Explain(a.analysis) }

// Timings re-exports the per-step pipeline durations (Table 4's split).
type Timings = core.Timings

// Timings reports how long each pipeline step took for this answer. For
// an answer served from the cache these are the durations of the original
// pipeline run that produced it.
func (a *Answer) Timings() Timings { return a.analysis.Timings }

// Search runs the five-step pipeline on a keyword/operator query written
// in the paper's input language (§4.3):
//
//	wealthy customers Zürich
//	salary >= 100000 and birth date = date(1981-04-23)
//	sum (amount) group by (transaction date)
//	top 10 trading volume customer
func (s *System) Search(query string) (*Answer, error) {
	return s.SearchWith(query, SearchOptions{})
}

// SearchOptions are per-search knobs layered over the System's Options.
type SearchOptions struct {
	// Dialect renders the generated SQL for a specific backend
	// ("generic", "postgres", "mysql", "db2"); empty uses the System's
	// Options.Dialect. Unknown names are an error.
	Dialect string
	// Snippets executes each result with the snippet row cap during the
	// pipeline and caches the rows with the answer: repeated snippet
	// searches are served entirely from the cache, zero SQL executions.
	Snippets bool
}

// coreSearchOptions resolves public SearchOptions into the core form,
// rejecting unknown dialect names.
func coreSearchOptions(opts SearchOptions) (core.SearchOptions, error) {
	d, err := requestDialect(opts.Dialect)
	return core.SearchOptions{Dialect: d, Snippets: opts.Snippets}, err
}

// requestDialect resolves a per-request dialect name: empty is nil — the
// System's configured dialect — and unknown names are an error.
func requestDialect(name string) (*sqlast.Dialect, error) {
	if name == "" {
		return nil, nil
	}
	d, ok := sqlast.DialectByName(name)
	if !ok {
		return nil, fmt.Errorf("soda: unknown dialect %q (supported: %s)",
			name, strings.Join(Dialects(), ", "))
	}
	return d, nil
}

// SearchWith is Search with per-request options: a target SQL dialect
// and/or cached snippet execution.
func (s *System) SearchWith(query string, opts SearchOptions) (*Answer, error) {
	so, err := coreSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	a, err := s.sys.SearchWith(query, so)
	if err != nil {
		return nil, err
	}
	return s.answerOf(a), nil
}

// SearchRendered is the search path with a caller-chosen rendering. On a
// repeat of a query already rendered (same raw query string, dialect and
// snippet flag, ranking unchanged since) it returns the exact bytes
// previously produced by render — no pipeline, no re-encode, zero heap
// allocations — with hit=true. Otherwise it searches, calls render on the
// answer, caches only the returned bytes and returns them with hit=false.
// The sequence itself lives in core.SearchRenderedContext; this only
// adapts render from the core analysis to the public Answer. The serving
// layer calls SearchJSONContext instead, which renders without building
// an Answer. Cached bytes are shared per renderer: SearchRendered and
// SearchJSONContext never return each other's bytes, nor share an entry
// with Search, but every SearchRendered call of one query shares its
// bytes, whatever render it passes. The returned bytes are shared with
// the cache: callers must write them out unmodified.
func (s *System) SearchRendered(query string, opts SearchOptions, render func(*Answer) ([]byte, error)) (data []byte, hit bool, err error) {
	so, err := coreSearchOptions(opts)
	if err != nil {
		return nil, false, err
	}
	return s.sys.SearchRenderedContext(context.Background(), query, so, "answer", func(a *core.Analysis) ([]byte, error) {
		return render(s.answerOf(a))
	})
}

// answerOf wraps a completed core analysis in the public Answer shape.
func (s *System) answerOf(a *core.Analysis) *Answer {
	ans := &Answer{Complexity: a.Complexity, Ignored: a.Ignored, analysis: a}
	for _, t := range a.Terms {
		ans.Terms = append(ans.Terms, t.Text)
	}
	for _, sol := range a.Solutions {
		sql := sol.SQLText()
		if sql == "" {
			continue
		}
		res := &Result{
			SQL:          sql,
			Score:        sol.Score,
			Tables:       sol.TableNames(),
			FromTables:   append([]string(nil), sol.SQLTables...),
			Disconnected: sol.Disconnected,
			SnippetError: sol.SnippetErr,
			sys:          s.sys,
			sol:          sol,
		}
		if sol.Approved {
			res.Approved = true
			res.QueryName = sol.QueryName
			for _, b := range sol.Bindings {
				res.Params = append(res.Params, ParamBinding{
					Name: b.Name, Type: b.Type, Value: b.Value.String(), FromDefault: b.FromDefault,
				})
			}
		}
		if sol.Snippet != nil {
			res.SnippetRows = newRowsCopy(sol.Snippet)
		}
		for _, j := range sol.Joins {
			res.Joins = append(res.Joins, j.String())
		}
		for _, f := range sol.Filters {
			res.Filters = append(res.Filters, f.String())
		}
		ans.Results = append(ans.Results, res)
	}
	return ans
}

// ParseQuery exposes the input-pattern parser for tooling; most callers
// just use Search.
func ParseQuery(query string) (*queryparse.Query, error) {
	return queryparse.Parse(query)
}

// ExecuteSQL runs an arbitrary SQL statement (the engine's subset) against
// the world — the schema-exploration workflow of §5.3.2 where analysts
// take SODA's statements and refine them by hand. The statement is read
// in the System's configured dialect.
func (s *System) ExecuteSQL(sql string) (*Rows, error) {
	return s.ExecuteSQLInContext(context.Background(), "", sql)
}

// ExecuteSQLInContext runs a statement written in the named dialect
// (empty = the System's configured dialect; unknown names are an error).
// ctx carries cancellation and trace-span capture into the backend
// execution.
func (s *System) ExecuteSQLInContext(ctx context.Context, dialect, sql string) (*Rows, error) {
	d, err := requestDialect(dialect)
	if err != nil {
		return nil, err
	}
	res, err := s.sys.ExecSQL(ctx, sql, d)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// TableInfo re-exports the schema-browser view (§5.3.2's exploratory
// workflow): columns, join-graph neighbours, inheritance structure and
// the business terms that reach the table through the metadata layers.
type TableInfo = core.TableInfo

// Browse returns the schema-browser view of one physical table.
func (s *System) Browse(table string) (*TableInfo, error) {
	return s.sys.Browse(table)
}

// ExplainSQL renders the reference engine's execution plan for a
// statement — the plan Execute runs, from the same planner: scans with
// pushed-down filters and the rows each keeps (the scans are run, the
// joins are not), hash/cross join order, residual predicates and the
// aggregation pipeline. The plan is always computed over the world's
// in-memory corpus — a real SQL backend has its own EXPLAIN — and the
// statement is read in the System's configured dialect.
func (s *System) ExplainSQL(sql string) (string, error) {
	sel, err := sqlparse.ParseDialect(sql, s.sys.Opt.Dialect)
	if err != nil {
		return "", err
	}
	return memory.Explain(s.world.db, sel)
}
