package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"soda"
)

// --- admission control --------------------------------------------------

func TestSearchOverloadSheds503(t *testing.T) {
	srv := NewWith(sharedSys(), Config{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Saturate the only inflight slot and every queue place; the next
	// request is shed immediately.
	srv.inflight <- struct{}{}
	for len(srv.queue) < cap(srv.queue) {
		srv.queue <- struct{}{}
	}
	shed := srv.shed.Value() // the shared System's counter: count the delta
	resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, body %s", resp.StatusCode, body)
	}
	if got := srv.shed.Value(); got != shed+1 {
		t.Fatalf("soda_search_shed_total = %d, want %d", got, shed+1)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("shed body = %s", body)
	}

	// Slot and queue released: serving resumes.
	for len(srv.queue) > 0 {
		<-srv.queue
	}
	<-srv.inflight
	resp, body = postJSON(t, ts.URL+"/search", `{"query": "customer"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, body %s", resp.StatusCode, body)
	}
}

func TestSearchQueueHoldsThenAdmits(t *testing.T) {
	srv := NewWith(sharedSys(), Config{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Saturate the only inflight slot and leave one queue place free.
	srv.inflight <- struct{}{}
	for len(srv.queue) < cap(srv.queue)-1 {
		srv.queue <- struct{}{}
	}
	// This request parks in the queue waiting for the slot.
	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`)
		done <- result{resp.StatusCode, string(body)}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.queue) != cap(srv.queue) {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full + saturated: the next one is shed.
	resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full status = %d, body %s", resp.StatusCode, body)
	}
	// Freeing the slot admits the queued request.
	<-srv.inflight
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("queued request status = %d, body %s", r.status, r.body)
	}
}

// --- latency reporting --------------------------------------------------

func TestHealthzReportsSearchLatency(t *testing.T) {
	// A private System: the shared one's answer cache would make the first
	// request a hit and the split non-deterministic.
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/search", `{"query": "wealthy customers"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d status = %d, body %s", i, resp.StatusCode, body)
		}
	}
	var h HealthResponse
	if _, body := getBody(t, ts.URL+"/healthz"); true {
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
	}
	lat := h.SearchLatency
	if lat.Cold.Count != 1 || lat.Hit.Count != 1 {
		t.Fatalf("latency counts hit=%d cold=%d, want 1/1", lat.Hit.Count, lat.Cold.Count)
	}
	if lat.Cold.P99Us <= 0 || lat.Hit.P99Us <= 0 {
		t.Fatalf("latency p99s hit=%.2f cold=%.2f, want > 0", lat.Hit.P99Us, lat.Cold.P99Us)
	}
	if lat.Hit.MeanUs > lat.Cold.MeanUs {
		t.Fatalf("cache hit (%.1fµs) slower than cold pipeline (%.1fµs)", lat.Hit.MeanUs, lat.Cold.MeanUs)
	}
}

// --- response framing ---------------------------------------------------

func TestSearchResponseContentLength(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	cl := resp.Header.Get("Content-Length")
	if cl == "" {
		t.Fatal("no Content-Length on /search response")
	}
	if n, err := strconv.Atoi(cl); err != nil || n != len(body) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
}

func TestWriteJSONEncodeFailure(t *testing.T) {
	var logged []string
	srv := NewWith(sharedSys(), Config{Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status after encode failure = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encoding failed") {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "encoding") {
		t.Fatalf("encode failure not logged: %v", logged)
	}
}

// --- cache stats over the wire ------------------------------------------

// TestHealthzCacheEntriesAfterFeedback: feedback invalidates every cached
// answer, and /healthz must stop counting the stale ones immediately —
// the serving-side view of the Entries regression.
func TestHealthzCacheEntriesAfterFeedback(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	entries := func() int {
		t.Helper()
		_, body := getBody(t, ts.URL+"/healthz")
		var h HealthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		return h.Cache.Entries
	}
	if resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}
	if got := entries(); got < 1 {
		t.Fatalf("entries after search = %d, want >= 1", got)
	}
	if resp, body := postJSON(t, ts.URL+"/feedback", `{"query": "customer", "result": 0, "like": true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d, body %s", resp.StatusCode, body)
	}
	if got := entries(); got != 0 {
		t.Fatalf("entries after feedback = %d, want 0 (stale entries reported as servable)", got)
	}
}

// --- /admin/decommission ------------------------------------------------

func TestDecommissionEndpoint(t *testing.T) {
	ts := newTestServer(t)
	post := func(query string) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, ts.URL+"/admin/decommission"+query, "")
	}
	if resp, body := post(""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing replica: status = %d, body %s", resp.StatusCode, body)
	}
	// An id no replica can have would count as a peer that never pulls.
	for _, q := range []string{"?replica=b,c", "?replica=r2+r3"} {
		if resp, body := post(q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("decommission %s: status = %d, body %s; want 400", q, resp.StatusCode, body)
		}
	}
	// The shared System's identity is "local"; refusing self-decommission
	// is a conflict.
	if resp, body := post("?replica=local"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("self decommission: status = %d, body %s", resp.StatusCode, body)
	}
	resp, body := post("?replica=ghost")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decommission ghost: status = %d, body %s", resp.StatusCode, body)
	}
	var dr DecommissionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.OK || dr.Replica != "ghost" {
		t.Fatalf("decommission response = %+v", dr)
	}
}
