package soda

// The /search response body, rendered straight from the cached analysis.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"soda/internal/backend"
	"soda/internal/core"
	"soda/internal/jsonw"
)

// SearchJSONContext is the serving layer's /search path. It returns the
// response body for one query: the JSON the daemon sends, byte for byte,
// ending in a newline. On a repeat of a query already rendered (same raw
// query string, dialect and snippet flag, ranking unchanged since) it
// returns the cached bytes with hit=true and allocates nothing. Otherwise
// it searches (ctx flows into the pipeline's backend executions), appends
// the body from the analysis into pooled scratch, calls onCold (if
// non-nil) with the step timings and the top-ranked statement ("" when
// there is none), and caches an exact-size copy of the body, apart from
// the bytes SearchRendered caches. The returned bytes are shared with the
// cache: callers must write them out unmodified.
//
// The body is
//
//	{"query", "complexity", "terms", "ignored"?, "results": [{"index",
//	 "sql", "score", "tables", "from_tables", "joins"?, "filters"?,
//	 "disconnected"?, "approved"?, "query_name"?, "params"?,
//	 "snippet"?: {"columns", "rows", "row_count"}, "snippet_error"?}]}
//
// where a field marked ? is omitted when empty or false, and the other
// list fields are null when empty, except "results" and "rows".
func (s *System) SearchJSONContext(ctx context.Context, query string, opts SearchOptions, onCold func(t Timings, topSQL string)) (data []byte, hit bool, err error) {
	so, err := coreSearchOptions(opts)
	if err != nil {
		return nil, false, err
	}
	return s.sys.SearchRenderedContext(ctx, query, so, "json", func(a *core.Analysis) ([]byte, error) {
		sc := jsonScratchPool.Get().(*jsonScratch)
		defer sc.release()
		topSQL, err := sc.appendSearch(query, a, opts.Snippets)
		if err != nil {
			return nil, err
		}
		if onCold != nil {
			onCold(a.Timings, topSQL)
		}
		return append(make([]byte, 0, len(sc.body)), sc.body...), nil
	})
}

// jsonScratch is the pooled buffer pair one render appends into: body is
// the response, text one join, filter, statement or cell before it is
// escaped into body.
type jsonScratch struct {
	body, text []byte
}

var jsonScratchPool = sync.Pool{
	New: func() any { return &jsonScratch{body: make([]byte, 0, 8<<10), text: make([]byte, 0, 1<<10)} },
}

// maxPooledScratch bounds what the pool keeps, so one huge snippet answer
// does not pin its buffer for the life of the process.
const maxPooledScratch = 1 << 20

func (sc *jsonScratch) release() {
	if cap(sc.body) <= maxPooledScratch && cap(sc.text) <= maxPooledScratch {
		jsonScratchPool.Put(sc)
	}
}

// appendSearch renders the body of one /search answer into sc.body and
// returns the top-ranked statement's text. Solutions whose SQL generation
// failed are not results, so indexes count only the ones rendered.
func (sc *jsonScratch) appendSearch(query string, a *core.Analysis, snippets bool) (topSQL string, err error) {
	b := jsonw.AppendString(append(sc.body[:0], `{"query":`...), query)
	b = strconv.AppendInt(append(b, `,"complexity":`...), int64(a.Complexity), 10)
	b = append(b, `,"terms":`...)
	for i, t := range a.Terms {
		b = jsonw.AppendString(appendSep(b, i), t.Text)
	}
	b = closeList(b, len(a.Terms))
	if len(a.Ignored) > 0 {
		b = appendStrings(append(b, `,"ignored":`...), a.Ignored)
	}
	b = append(b, `,"results":[`...)
	n := 0
	for _, sol := range a.Solutions {
		if sol.SQL == nil {
			continue
		}
		if math.IsNaN(sol.Score) || math.IsInf(sol.Score, 0) {
			return "", fmt.Errorf("json: unsupported value: %v", sol.Score)
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"index":`...), int64(n), 10)
		sc.text = sol.AppendSQL(sc.text[:0])
		if n == 0 {
			topSQL = string(sc.text)
		}
		b = jsonw.AppendString(append(b, `,"sql":`...), sc.text)
		b = jsonw.AppendFloat(append(b, `,"score":`...), sol.Score)
		b = sol.AppendTablesJSON(append(b, `,"tables":`...))
		b = appendStrings(append(b, `,"from_tables":`...), sol.SQLTables)
		if len(sol.Joins) > 0 {
			b = append(b, `,"joins":`...)
			for i, j := range sol.Joins {
				sc.text = j.Append(sc.text[:0])
				b = jsonw.AppendString(appendSep(b, i), sc.text)
			}
			b = append(b, ']')
		}
		if len(sol.Filters) > 0 {
			b = append(b, `,"filters":`...)
			for i, f := range sol.Filters {
				sc.text = f.Append(sc.text[:0])
				b = jsonw.AppendString(appendSep(b, i), sc.text)
			}
			b = append(b, ']')
		}
		if sol.Disconnected {
			b = append(b, `,"disconnected":true`...)
		}
		if sol.Approved {
			b = sc.appendApproved(append(b, `,"approved":true`...), sol)
		}
		if snippets {
			switch {
			case sol.Snippet != nil:
				b = sc.appendRows(append(b, `,"snippet":`...), sol.Snippet.Columns, sol.Snippet.Rows)
			case sol.SnippetErr != "":
				b = jsonw.AppendString(append(b, `,"snippet_error":`...), sol.SnippetErr)
			}
		}
		b = append(b, '}')
		n++
	}
	sc.body = append(b, "]}\n"...)
	return topSQL, nil
}

// appendApproved appends a saved-query result's name and parameter
// bindings.
func (sc *jsonScratch) appendApproved(b []byte, sol *core.Solution) []byte {
	if sol.QueryName != "" {
		b = jsonw.AppendString(append(b, `,"query_name":`...), sol.QueryName)
	}
	if len(sol.Bindings) == 0 {
		return b
	}
	b = append(b, `,"params":`...)
	for i, p := range sol.Bindings {
		b = jsonw.AppendString(append(appendSep(b, i), `{"name":`...), p.Name)
		b = jsonw.AppendString(append(b, `,"type":`...), p.Type)
		sc.text = p.Value.AppendString(sc.text[:0])
		b = jsonw.AppendString(append(b, `,"value":`...), sc.text)
		if p.FromDefault {
			b = append(b, `,"from_default":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendRows appends a snippet: its columns, every cell in display form
// (Value.String) and the row count.
func (sc *jsonScratch) appendRows(b []byte, cols []string, rows [][]backend.Value) []byte {
	b = appendStrings(append(b, `{"columns":`...), cols)
	b = append(b, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			sc.text = v.AppendString(sc.text[:0])
			b = jsonw.AppendString(b, sc.text)
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `],"row_count":`...), int64(len(rows)), 10)
	return append(b, '}')
}

// appendStrings appends a string list, null when empty.
func appendStrings(b []byte, ss []string) []byte {
	for i, s := range ss {
		b = jsonw.AppendString(appendSep(b, i), s)
	}
	return closeList(b, len(ss))
}

// appendSep opens a list before its first element and separates the
// others.
func appendSep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// closeList closes a list of n elements that appendSep opened; a list
// with none was never opened and is null.
func closeList(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, ']')
}
