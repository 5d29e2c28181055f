package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"soda"
)

var (
	sysOnce sync.Once
	testSys *soda.System
)

func sharedSys() *soda.System {
	sysOnce.Do(func() {
		testSys = soda.NewSystem(soda.MiniBank(), soda.Options{})
		testSys.Warm()
	})
	return testSys
}

// searchBody decodes a /search response.
type searchBody struct {
	Query      string         `json:"query"`
	Complexity int            `json:"complexity"`
	Terms      []string       `json:"terms"`
	Ignored    []string       `json:"ignored"`
	Results    []searchResult `json:"results"`
}

// searchResult is one ranked statement of a /search response.
type searchResult struct {
	Index        int                 `json:"index"`
	SQL          string              `json:"sql"`
	Score        float64             `json:"score"`
	Tables       []string            `json:"tables"`
	FromTables   []string            `json:"from_tables"`
	Joins        []string            `json:"joins"`
	Filters      []string            `json:"filters"`
	Disconnected bool                `json:"disconnected"`
	Approved     bool                `json:"approved"`
	QueryName    string              `json:"query_name"`
	Params       []soda.ParamBinding `json:"params"`
	Snippet      *RowsJSON           `json:"snippet"`
	SnippetError string              `json:"snippet_error"`
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(sharedSys()))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, readAll(t, resp)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.World != "minibank" || h.Tables != 10 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestSearchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search", `{"query":"customers Zürich financial instruments"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	if sr.Complexity < 1 || len(sr.Terms) == 0 {
		t.Fatalf("answer metadata missing: %+v", sr)
	}
	for i, r := range sr.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if !strings.HasPrefix(r.SQL, "SELECT") {
			t.Fatalf("result %d SQL = %q", i, r.SQL)
		}
		if r.Snippet != nil {
			t.Fatal("snippets not requested but present")
		}
	}
}

func TestSearchSnippets(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search", `{"query":"Sara Guttinger","snippets":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	found := false
	for _, r := range sr.Results {
		if r.Snippet != nil && r.Snippet.RowCount > 0 {
			found = true
			if len(r.Snippet.Columns) == 0 || len(r.Snippet.Rows) != r.Snippet.RowCount {
				t.Fatalf("malformed snippet: %+v", r.Snippet)
			}
		}
	}
	if !found {
		t.Fatal("no result produced snippet rows")
	}
}

func TestSearchErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		body string
		want int
		text string // the error text, when pinned
	}{
		{`{"query":""}`, http.StatusBadRequest, ""},
		{`{"query":"sum ("}`, http.StatusBadRequest, ""}, // parse error
		{`not json`, http.StatusBadRequest, ""},
		{`{"query":"x","bogus":1}`, http.StatusBadRequest, // unknown field
			`invalid request body: json: unknown field "bogus"`},
		// One JSON value per body: anything after it but whitespace is
		// rejected, a second value included.
		{`{"query":"customers"}garbage`, http.StatusBadRequest,
			"invalid request body: data after the JSON value"},
		{`{"query":"customers"} {"query":"zzz"}`, http.StatusBadRequest,
			"invalid request body: data after the JSON value"},
		{`{"query":"customers"}}`, http.StatusBadRequest,
			"invalid request body: data after the JSON value"},
	} {
		resp, body := postJSON(t, ts.URL+"/search", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q: status = %d want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("body %q: error envelope missing: %s", tc.body, body)
		}
		if tc.text != "" && er.Error != tc.text {
			t.Fatalf("body %q: error = %q want %q", tc.body, er.Error, tc.text)
		}
	}
	// Whitespace after the value is no trailing data.
	if resp, body := postJSON(t, ts.URL+"/search", "{\"query\":\"customers\"} \n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status = %d (%s)", resp.StatusCode, body)
	}
}

// TestBodyLimit: a body over maxBodyBytes answers 413 whether the client
// declares its length or streams it chunked, and one just under the cap
// is read.
func TestBodyLimit(t *testing.T) {
	ts := newTestServer(t)
	big := `{"query":"customers"}` + strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"declared length", strings.NewReader(big), http.StatusRequestEntityTooLarge},
		{"chunked", io.MultiReader(strings.NewReader(big)), http.StatusRequestEntityTooLarge},
		{"under the cap", strings.NewReader(big[:maxBodyBytes]), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/search", "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status = %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

func TestSQLEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/sql", `{"sql":"select * from parties"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rows RowsJSON
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if rows.RowCount == 0 || len(rows.Columns) == 0 {
		t.Fatalf("rows = %+v", rows)
	}

	resp, _ = postJSON(t, ts.URL+"/sql", `{"sql":"select * from nonexistent"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown table status = %d", resp.StatusCode)
	}

	resp, body = postJSON(t, ts.URL+"/sql", `{"sql":"select * from parties"} x`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data status = %d, body %s", resp.StatusCode, body)
	}
}

func TestBrowseEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := getBody(t, ts.URL+"/browse/parties")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br BrowseResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatal(err)
	}
	if br.Name != "parties" || len(br.Columns) == 0 {
		t.Fatalf("browse = %+v", br)
	}
	if len(br.Related) == 0 {
		t.Fatal("parties should have join-graph neighbours")
	}

	resp, _ = getBody(t, ts.URL+"/browse/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table status = %d", resp.StatusCode)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	// Private system: feedback mutates ranking state.
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/feedback", `{"query":"wealthy customers","result":0,"like":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.OK || fr.SQL == "" {
		t.Fatalf("feedback = %+v", fr)
	}

	resp, _ = postJSON(t, ts.URL+"/feedback", `{"query":"wealthy customers","result":99,"like":true}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range result status = %d", resp.StatusCode)
	}
}

// TestFeedbackOnSavedQueryIs400: an approved saved-query result has no
// entry point a like could adjust, so /feedback refuses it as a bad
// request and records nothing: the cached answer stays servable.
func TestFeedbackOnSavedQueryIs400(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	if err := sys.RegisterQuery(soda.SavedQuery{
		Name: "big earners",
		SQL:  "select i.firstname, i.salary from individuals i where i.salary >= 100000",
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/search", `{"query":"big earners"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 || !sr.Results[0].Approved {
		t.Fatalf("top result is not the saved query: %s", body)
	}
	entries := sys.CacheStats().Entries
	resp, body = postJSON(t, ts.URL+"/feedback", `{"query":"big earners","result":0,"like":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("feedback on a saved query: status = %d, body %s; want 400", resp.StatusCode, body)
	}
	// The feedback's own resolution files the analysis next to the
	// rendered /search entry; a recorded write would have emptied both.
	if got := sys.CacheStats().Entries; got < entries {
		t.Fatalf("cache entries %d -> %d: refused feedback must not invalidate the cache", entries, got)
	}
}

// TestFeedbackBySQL pins the result by statement text — immune to
// re-ranking between the client's search and its feedback.
func TestFeedbackBySQL(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/search", `{"query":"wealthy customers"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(FeedbackRequest{Query: "wealthy customers", SQL: sr.Results[0].SQL, Like: true})
	resp, body = postJSON(t, ts.URL+"/feedback", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback-by-sql status = %d, body %s", resp.StatusCode, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.OK || fr.SQL != sr.Results[0].SQL || fr.Result != 0 {
		t.Fatalf("feedback = %+v", fr)
	}

	req, _ = json.Marshal(FeedbackRequest{Query: "wealthy customers", SQL: "SELECT nothing", Like: true})
	resp, _ = postJSON(t, ts.URL+"/feedback", string(req))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sql status = %d", resp.StatusCode)
	}
}

// TestFeedbackInSearchDialect: a client that searched in db2 pins the
// db2 statement it saw; /feedback resolves the result in that dialect and
// echoes the statement in it. An unknown dialect is a 400, as on /search.
func TestFeedbackInSearchDialect(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	const q = "top 10 trading volume customer"
	resp, body := postJSON(t, ts.URL+"/search", `{"query":"`+q+`","dialect":"db2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sql := sr.Results[0].SQL
	if !strings.Contains(sql, "FETCH FIRST") {
		t.Fatalf("db2 statement without FETCH FIRST: %s", sql)
	}
	req, _ := json.Marshal(FeedbackRequest{Query: q, SQL: sql, Dialect: "db2", Like: true})
	resp, body = postJSON(t, ts.URL+"/feedback", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback in db2: status = %d, body %s", resp.StatusCode, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.SQL != sql || fr.Result != 0 {
		t.Fatalf("feedback = %+v, want result 0 with sql %q", fr, sql)
	}

	resp, body = postJSON(t, ts.URL+"/feedback", `{"query":"`+q+`","result":0,"dialect":"klingon","like":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dialect: status = %d, body %s; want 400", resp.StatusCode, body)
	}
}

// TestFeedbackAmbiguousSQLIs409: when several results carry the pinned
// statement, /feedback adjusts none of them and names the matching
// indexes, so the client passes "result" instead.
func TestFeedbackAmbiguousSQLIs409(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/search", `{"query":"addresses"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) < 2 || sr.Results[0].SQL != sr.Results[1].SQL {
		t.Fatalf("want results 0 and 1 with one statement: %s", body)
	}
	var want []int
	for i, r := range sr.Results {
		if r.SQL == sr.Results[0].SQL {
			want = append(want, i)
		}
	}
	req, _ := json.Marshal(FeedbackRequest{Query: "addresses", SQL: sr.Results[0].SQL, Like: true})
	resp, body = postJSON(t, ts.URL+"/feedback", string(req))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ambiguous sql: status = %d, body %s; want 409", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, fmt.Sprint(want)) {
		t.Fatalf("error %q does not name results %v", er.Error, want)
	}
	if st := sys.CacheStats(); st.Entries == 0 {
		t.Fatal("a refused pin must record nothing, but the cache was emptied")
	}

	req, _ = json.Marshal(FeedbackRequest{Query: "addresses", Result: 1, Like: true})
	resp, body = postJSON(t, ts.URL+"/feedback", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback by index: status = %d, body %s", resp.StatusCode, body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := getBody(t, ts.URL+"/explain?q=wealthy+customers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{"step 1 - lookup", "step 5 - SQL"} {
		if !strings.Contains(body, want) {
			t.Fatalf("explain output missing %q:\n%s", want, body)
		}
	}

	resp, _ = getBody(t, ts.URL+"/explain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status = %d", resp.StatusCode)
	}
}

// TestConcurrentRequests hammers one server (hence one shared System)
// with a mixed read workload from many goroutines.
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var resp *http.Response
				var err error
				switch (g + i) % 3 {
				case 0:
					resp, err = http.Post(ts.URL+"/search", "application/json",
						strings.NewReader(`{"query":"customers Zürich financial instruments"}`))
				case 1:
					resp, err = http.Get(ts.URL + "/browse/parties")
				default:
					resp, err = http.Post(ts.URL+"/sql", "application/json",
						strings.NewReader(`{"sql":"select * from parties"}`))
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- dialect + snippet-cache coverage ---------------------------------

func TestSearchDialect(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search",
		`{"query":"top 10 trading volume customer","dialect":"db2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	if !strings.Contains(sr.Results[0].SQL, "FETCH FIRST 10 ROWS ONLY") {
		t.Fatalf("db2 SQL should use FETCH FIRST, got:\n%s", sr.Results[0].SQL)
	}

	// The same query in mysql renders differently; the cache must not
	// leak one dialect's answer to the other.
	resp, body = postJSON(t, ts.URL+"/search",
		`{"query":"top 10 trading volume customer","dialect":"mysql"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var mr searchBody
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(mr.Results[0].SQL, "FETCH FIRST") {
		t.Fatalf("mysql answer served db2 SQL:\n%s", mr.Results[0].SQL)
	}
	if !strings.Contains(mr.Results[0].SQL, "LIMIT 10") {
		t.Fatalf("mysql SQL should use LIMIT, got:\n%s", mr.Results[0].SQL)
	}
}

func TestSearchUnknownDialect(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search", `{"query":"customer","dialect":"oracle"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown dialect") {
		t.Fatalf("body = %s", body)
	}
}

func TestSQLDialect(t *testing.T) {
	ts := newTestServer(t)
	// Backtick identifier quoting is a MySQL-ism the generic parser also
	// accepts; the important part is the dialect-specific string
	// escaping round trip.
	resp, body := postJSON(t, ts.URL+"/sql",
		`{"sql":"select count(*) from individuals where lastname like '%\\%'","dialect":"mysql"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/sql", `{"sql":"select * from parties","dialect":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestSnippetsServedFromCache is the serving-layer view of the ROADMAP
// bug fix: the second snippet search must be answered entirely from the
// answer cache — zero SQL executions — and still carry rows.
func TestSnippetsServedFromCache(t *testing.T) {
	ts := newTestServer(t)
	q := `{"query":"customers Zürich financial instruments","snippets":true}`
	resp, body := postJSON(t, ts.URL+"/search", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	before := sharedSys().ExecCount()
	resp, body = postJSON(t, ts.URL+"/search", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := sharedSys().ExecCount(); got != before {
		t.Fatalf("cached snippet search executed %d statement(s), want 0", got-before)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	withRows := 0
	for _, r := range sr.Results {
		if r.Snippet != nil && r.Snippet.RowCount > 0 {
			withRows++
		}
	}
	if withRows == 0 {
		t.Fatal("cached snippet search returned no rows")
	}
}

func TestHealthzReportsDialectsAndExecutions(t *testing.T) {
	ts := newTestServer(t)
	_, _ = postJSON(t, ts.URL+"/search", `{"query":"customer","snippets":true}`)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Dialects) != 4 {
		t.Fatalf("dialects = %v, want 4 entries", h.Dialects)
	}
	if h.Executions == 0 {
		t.Fatal("executions counter should be non-zero after a snippet search")
	}
}
