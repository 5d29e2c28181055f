package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soda"
)

// The saved-query admin API on a single server: PUT validation, GET/
// DELETE/list round-trip, and /search marking approved answers with
// their bound parameters.

// newQueryTestServer gives the test its own System so registrations
// don't leak into the shared one.
func newQueryTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

const bigEarnersBody = `{
	"description": "individuals with a salary above a threshold",
	"sql": "select i.firstname, i.lastname, i.salary from individuals i where i.salary >= ?",
	"params": [{"name": "min salary", "type": "float", "default": "100000"}]
}`

func TestAdminQueriesCRUD(t *testing.T) {
	ts := newQueryTestServer(t)
	base := ts.URL + "/admin/queries"

	// Empty library lists as an empty array, not null.
	if status, body := do(t, http.MethodGet, base, ""); status != http.StatusOK || !strings.Contains(body, `"queries":[]`) {
		t.Fatalf("empty list: status %d body %s", status, body)
	}

	status, body := do(t, http.MethodPut, base+"/big%20earners", bigEarnersBody)
	if status != http.StatusOK {
		t.Fatalf("PUT: status %d: %s", status, body)
	}
	var put QueryPutResponse
	if err := json.Unmarshal([]byte(body), &put); err != nil {
		t.Fatal(err)
	}
	// The response echoes the canonicalised entry: name from the path,
	// SQL re-rendered in the generic dialect.
	if put.Query.Name != "big earners" || !strings.HasPrefix(put.Query.SQL, "SELECT ") {
		t.Fatalf("PUT echo = %+v", put.Query)
	}
	if len(put.Query.Params) != 1 || put.Query.Params[0].Default == nil || *put.Query.Params[0].Default != "100000" {
		t.Fatalf("PUT echo params = %+v", put.Query.Params)
	}

	if status, body = do(t, http.MethodGet, base+"/big%20earners", ""); status != http.StatusOK {
		t.Fatalf("GET: status %d: %s", status, body)
	}
	if status, body = do(t, http.MethodGet, base+"/nope", ""); status != http.StatusNotFound {
		t.Fatalf("GET missing: status %d: %s", status, body)
	}
	if status, body = do(t, http.MethodGet, base, ""); status != http.StatusOK || !strings.Contains(body, `"big earners"`) {
		t.Fatalf("list: status %d body %s", status, body)
	}

	// Validation failures are 400s: body/path name mismatch, bad SQL,
	// spec/placeholder disagreement, a misspelt field at either level.
	for name, bad := range map[string]string{
		"name mismatch":       `{"name": "other", "sql": "select * from parties"}`,
		"bad sql":             `{"sql": "select * from"}`,
		"missing spec":        `{"sql": "select * from parties where id = ?"}`,
		"bad type":            `{"sql": "select * from parties where id = ?", "params": [{"name": "p", "type": "decimal"}]}`,
		"unknown field":       `{"sql": "select * from parties", "descripton": "typo"}`,
		"unknown param field": `{"sql": "select * from parties where id = ?", "params": [{"name": "p", "type": "int", "defualt": "1"}]}`,
	} {
		if status, body = do(t, http.MethodPut, base+"/x", bad); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, status, body)
		}
	}

	if status, body = do(t, http.MethodDelete, base+"/big%20earners", ""); status != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", status, body)
	}
	if status, _ = do(t, http.MethodDelete, base+"/big%20earners", ""); status != http.StatusNotFound {
		t.Fatalf("DELETE missing: status %d, want 404", status)
	}
}

func TestSearchMarksApprovedAnswers(t *testing.T) {
	ts := newQueryTestServer(t)
	if status, body := do(t, http.MethodPut, ts.URL+"/admin/queries/big%20earners", bigEarnersBody); status != http.StatusOK {
		t.Fatalf("PUT: status %d: %s", status, body)
	}

	resp, body := postJSON(t, ts.URL+"/search", `{"query": "big earners salary >= 50000"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	var sr searchBody
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	var approved *searchResult
	for i := range sr.Results {
		if sr.Results[i].Approved {
			approved = &sr.Results[i]
			break
		}
	}
	if approved == nil {
		t.Fatalf("no approved result in: %s", body)
	}
	if approved.QueryName != "big earners" {
		t.Fatalf("query_name = %q", approved.QueryName)
	}
	if len(approved.Params) != 1 || approved.Params[0].Value != "50000" || approved.Params[0].FromDefault {
		t.Fatalf("params = %+v, want min salary bound to 50000 from the input", approved.Params)
	}

	// Snippets for approved answers run the prepared path and return rows.
	resp, body = postJSON(t, ts.URL+"/search", `{"query": "big earners salary >= 50000", "snippets": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snippet search: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for i := range sr.Results {
		if !sr.Results[i].Approved {
			continue
		}
		if sr.Results[i].Snippet == nil || len(sr.Results[i].Snippet.Rows) == 0 {
			t.Fatalf("approved result has no snippet rows: %s", body)
		}
		return
	}
	t.Fatalf("no approved result in snippet search: %s", body)
}
