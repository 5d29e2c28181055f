package server

// The query-facing routes: /search (the rendered-answer hot path),
// /sql, /explain, /browse/{table} and /feedback.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"soda"
	"soda/internal/obs"
)

// --- /search ----------------------------------------------------------

// SearchRequest asks for the ranked SQL of one input query. With Snippets
// set, each result also carries up to the snippet row cap of executed
// rows (the paper's result page shows "up to twenty tuples"); snippet
// rows are cached with the answer, so repeated snippet searches execute
// no SQL. Dialect renders the statements for a specific backend
// ("generic", "postgres", "mysql", "db2"); empty uses the daemon's
// configured default.
type SearchRequest struct {
	Query    string `json:"query"`
	Snippets bool   `json:"snippets,omitempty"`
	Dialect  string `json:"dialect,omitempty"`
}

// RowsJSON is a materialised /sql result; values are rendered as strings
// the way the CLI prints them. A /search snippet has the same shape.
type RowsJSON struct {
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	RowCount int        `json:"row_count"`
}

func rowsJSON(rows *soda.Rows) *RowsJSON {
	out := &RowsJSON{Columns: rows.Columns, Rows: make([][]string, len(rows.Values)), RowCount: rows.NumRows()}
	for i, row := range rows.Values {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out.Rows[i] = cells
	}
	return out
}

// searchRequests recycles /search decode targets: encoding/json moves a
// decode target to the heap, and /search is the hot route.
var searchRequests = sync.Pool{New: func() any { return new(SearchRequest) }}

func putSearchRequest(req *SearchRequest) {
	*req = SearchRequest{} // decoding leaves absent fields as they were
	searchRequests.Put(req)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(r) {
		s.shed.Inc()
		w.Header().Set("Retry-After", "1") // seconds
		s.writeError(w, r, http.StatusServiceUnavailable,
			errors.New("overloaded: search admission queue is full, retry later"))
		return
	}
	defer s.release()
	req := searchRequests.Get().(*SearchRequest)
	defer putSearchRequest(req)
	if !s.decodeBody(w, r, req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, r, http.StatusBadRequest, errors.New("missing query"))
		return
	}
	// The hot path: a repeat of an already-rendered query returns the
	// cached response bytes — no pipeline, no re-encode, zero core
	// allocations — while a miss renders the body straight from the
	// analysis and caches it for the next repeat. Dialect validation
	// happens inside; an unknown name surfaces as a 400 through the normal
	// error path.
	info := requestInfoFrom(r)
	info.setDialect(req.Dialect)
	info.setQuery(req.Query)
	start := time.Now()
	data, hit, err := s.sys.SearchJSONContext(r.Context(), req.Query, soda.SearchOptions{
		Dialect:  req.Dialect,
		Snippets: req.Snippets,
	}, func(t soda.Timings, topSQL string) {
		addPipelineSpans(&info.tr, t)
		if topSQL != "" {
			info.setSQL(topSQL)
		}
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The request's context ended between pipeline steps (the
		// client hung up, or a deadline passed). The query itself may
		// be fine, so this is no 400.
		info.setOutcome("canceled")
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if hit {
		info.setOutcome("hit")
		s.reqHit.Inc()
		s.hitLat.Record(time.Since(start))
	} else {
		info.setOutcome("cold")
		s.reqCold.Inc()
		s.coldLat.Record(time.Since(start))
	}
	s.writeRaw(w, http.StatusOK, data)
}

// addPipelineSpans appends one cold run's step timings to the request's
// span trace, carried into the structured request log, the flight
// recorder and /debug/requests. The core pipeline appends its own
// backend-execution spans to the same trace through the request context,
// so the callback only contributes the step breakdown.
func addPipelineSpans(tr *obs.Trace, t soda.Timings) {
	tr.Add("lookup", t.Lookup)
	tr.Add("rank", t.Rank)
	tr.Add("tables", t.Tables)
	tr.Add("filters", t.Filters)
	tr.Add("sqlgen", t.SQL)
	if t.Snippet > 0 {
		tr.Add("snippet", t.Snippet)
	}
}

// --- /sql -------------------------------------------------------------

// SQLRequest executes one statement in the engine's SQL subset — the
// §5.3.2 exploration workflow where analysts refine SODA's statements.
// Dialect says which dialect the statement is written in (quoting and
// escaping rules); empty uses the daemon's configured default.
type SQLRequest struct {
	SQL     string `json:"sql"`
	Dialect string `json:"dialect,omitempty"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req SQLRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.writeError(w, r, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	info := requestInfoFrom(r)
	info.setDialect(req.Dialect)
	info.setSQL(req.SQL)
	rows, err := s.sys.ExecuteSQLInContext(r.Context(), req.Dialect, req.SQL)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rowsJSON(rows))
}

// --- /browse/{table} --------------------------------------------------

// BrowseResponse is the schema-browser view of one table.
type BrowseResponse struct {
	Name                string         `json:"name"`
	Columns             []BrowseColumn `json:"columns"`
	Related             []BrowseJoin   `json:"related,omitempty"`
	Labels              []string       `json:"labels,omitempty"`
	InheritanceParent   string         `json:"inheritance_parent,omitempty"`
	InheritanceChildren []string       `json:"inheritance_children,omitempty"`
}

// BrowseColumn is one column with its declared type.
type BrowseColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// BrowseJoin is one join-graph neighbour.
type BrowseJoin struct {
	Table string `json:"table"`
	Join  string `json:"join"`
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	info, err := s.sys.Browse(table)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return
	}
	resp := BrowseResponse{
		Name:                info.Name,
		Labels:              info.Labels,
		InheritanceParent:   info.InheritanceParent,
		InheritanceChildren: info.InheritanceChildren,
	}
	for _, c := range info.Columns {
		resp.Columns = append(resp.Columns, BrowseColumn{Name: c.Name, Type: c.Type})
	}
	for _, rel := range info.Related {
		resp.Related = append(resp.Related, BrowseJoin{Table: rel.Table, Join: rel.Join.String()})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// --- /feedback --------------------------------------------------------

// FeedbackRequest likes or dislikes one ranked result of a query (§6.3).
// SQL, when set, pins the exact statement the client saw: feedback
// re-ranks future answers, so a bare index can drift between the search
// the client rendered and the one resolved here; a statement several
// results carry is ambiguous, and the client passes Result instead.
// Dialect, with /search's rules, is the one the client searched in: SQL
// is compared and echoed in it.
type FeedbackRequest struct {
	Query   string `json:"query"`
	Result  int    `json:"result"`
	SQL     string `json:"sql,omitempty"`
	Dialect string `json:"dialect,omitempty"`
	Like    bool   `json:"like"`
}

// FeedbackResponse confirms what was recorded.
type FeedbackResponse struct {
	OK     bool   `json:"ok"`
	Query  string `json:"query"`
	Result int    `json:"result"`
	Like   bool   `json:"like"`
	SQL    string `json:"sql"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, r, http.StatusBadRequest, errors.New("missing query"))
		return
	}
	ans, err := s.sys.SearchWith(req.Query, soda.SearchOptions{Dialect: req.Dialect})
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	var res *soda.Result
	index := req.Result
	switch {
	case req.SQL != "":
		var matches []int
		for i, r := range ans.Results {
			if r.SQL == req.SQL {
				matches = append(matches, i)
			}
		}
		if len(matches) != 1 {
			status, err := http.StatusNotFound, fmt.Errorf("no result with the given sql (query has %d results)", len(ans.Results))
			if len(matches) > 1 {
				status, err = http.StatusConflict, fmt.Errorf("results %v all have the given sql: pass \"result\" instead", matches)
			}
			s.writeError(w, r, status, err)
			return
		}
		index = matches[0]
		res = ans.Results[index]
	case req.Result < 0 || req.Result >= len(ans.Results):
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("result %d out of range (query has %d results)", req.Result, len(ans.Results)))
		return
	default:
		res = ans.Results[req.Result]
	}
	// Like/Dislike apply to the entry points of the result resolved above,
	// even when another feedback call re-ranked the system since. An error
	// means the result has no entry point a like could adjust (400), or
	// the state store rejected the write (500).
	var ferr error
	if req.Like {
		ferr = res.Like()
	} else {
		ferr = res.Dislike()
	}
	if ferr != nil {
		status := http.StatusInternalServerError
		if errors.Is(ferr, soda.ErrNoEntryPoints) {
			status = http.StatusBadRequest
		}
		s.writeError(w, r, status, ferr)
		return
	}
	s.writeJSON(w, http.StatusOK, FeedbackResponse{
		OK: true, Query: req.Query, Result: index, Like: req.Like, SQL: res.SQL,
	})
}

// --- /explain ---------------------------------------------------------

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		s.writeError(w, r, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	ans, err := s.sys.SearchWith(q, soda.SearchOptions{Dialect: r.URL.Query().Get("dialect")})
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(ans.Explain()))
}
