package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"soda"
	"soda/internal/obs"
)

// TestMetricsEndpointCoversAllLayers: on an in-memory System, a cold
// search and its repeat must leave traces in every layer's instruments —
// pipeline steps, cache, serving latency — under their stable metric
// names.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	srv := New(sys)
	for i := 0; i < 2; i++ { // second request is the cache hit
		call(t, srv, http.MethodPost, "/search", `{"query": "customer"}`, http.StatusOK)
	}
	s := scrapeOf(t, srv)

	// Pipeline: every step histogram saw the one cold search.
	for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen"} {
		if got := s.at(t, "soda_pipeline_step_seconds_count", label("step", step)); got < 1 {
			t.Errorf("soda_pipeline_step_seconds_count{step=%q} = %v, want >= 1", step, got)
		}
	}
	// Serving: one hit, one cold, both counted and timed.
	for _, outcome := range []string{"hit", "cold"} {
		if got := s.at(t, "soda_search_requests_total", label("outcome", outcome)); got != 1 {
			t.Errorf("soda_search_requests_total{outcome=%q} = %v, want 1", outcome, got)
		}
		if got := s.at(t, "soda_search_latency_seconds_count", label("outcome", outcome)); got != 1 {
			t.Errorf("soda_search_latency_seconds_count{outcome=%q} = %v, want 1", outcome, got)
		}
	}
	// Cache: the repeat was a hit, the first was a miss.
	if got := s.at(t, "soda_cache_hits_total"); got != 1 {
		t.Errorf("soda_cache_hits_total = %v, want 1", got)
	}
	if got := s.at(t, "soda_cache_misses_total"); got < 1 {
		t.Errorf("soda_cache_misses_total = %v, want >= 1", got)
	}
	if got := s.at(t, "soda_cache_entries"); got < 1 {
		t.Errorf("soda_cache_entries = %v, want >= 1", got)
	}
	// Shed counter is served, and zero: nothing was saturated.
	if got := s.at(t, "soda_search_shed_total"); got != 0 {
		t.Errorf("soda_search_shed_total = %v, want 0", got)
	}
}

// TestScrapeParsersAgree: on a live scrape of every instrument in the
// process, ParseText (what the benchmark, the delta reports and the
// catalog test read) keeps one series per sample line, none collapsed.
func TestScrapeParsersAgree(t *testing.T) {
	srv := New(soda.NewSystem(soda.MiniBank(), soda.Options{}))
	call(t, srv, http.MethodPost, "/search", `{"query": "wealthy customers", "snippets": true}`, http.StatusOK)
	call(t, srv, http.MethodPost, "/feedback", `{"query": "wealthy customers", "result": 0, "like": true}`, http.StatusOK)
	s := scrapeOf(t, srv)

	samples := 0
	for _, line := range strings.Split(s.body, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	if samples < 50 || len(s.vals) != samples {
		t.Fatalf("scrape has %d sample lines, ParseText %d series", samples, len(s.vals))
	}
}

// TestMetricsDisabled: Config.DisableMetrics hides the route entirely.
func TestMetricsDisabled(t *testing.T) {
	ts := httptest.NewServer(NewWith(sharedSys(), Config{DisableMetrics: true}))
	t.Cleanup(ts.Close)
	resp, _ := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with DisableMetrics status = %d, want 404", resp.StatusCode)
	}
}

// TestRequestIDPropagation: every response carries X-Request-Id, ids are
// distinct, and error envelopes echo the id so client reports can be
// matched against the request log.
func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t)
	resp1, _ := getBody(t, ts.URL+"/healthz")
	resp2, body := postJSON(t, ts.URL+"/search", `{"query": ""}`)
	id1, id2 := resp1.Header.Get("X-Request-Id"), resp2.Header.Get("X-Request-Id")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("request ids = %q, %q: want distinct non-empty", id1, id2)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query status = %d", resp2.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != id2 {
		t.Fatalf("error envelope request_id = %q, want %q (header)", er.RequestID, id2)
	}
}

// TestAccessLogLines: the structured request log carries the promised
// fields — id matching the header, method/path/status/bytes, dialect and
// cache outcome for searches, per-step timings on cold searches only.
func TestAccessLogLines(t *testing.T) {
	var buf bytes.Buffer
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(NewWith(sys, Config{AccessLog: &buf}))
	t.Cleanup(ts.Close)

	var headerIDs []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer", "dialect": "postgres"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
		}
		headerIDs = append(headerIDs, resp.Header.Get("X-Request-Id"))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []struct {
		cache     string
		wantSteps bool
	}{{"cold", true}, {"hit", false}} {
		var line requestLogLine
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if line.RequestID != headerIDs[i] {
			t.Errorf("line %d request_id = %q, want %q", i, line.RequestID, headerIDs[i])
		}
		if line.Method != "POST" || line.Path != "/search" || line.Status != 200 {
			t.Errorf("line %d = %+v, want POST /search 200", i, line)
		}
		if line.Bytes <= 0 || line.DurUs <= 0 {
			t.Errorf("line %d bytes=%d dur_us=%v, want positive", i, line.Bytes, line.DurUs)
		}
		if line.Dialect != "postgres" || line.Cache != want.cache {
			t.Errorf("line %d dialect=%q cache=%q, want postgres/%s", i, line.Dialect, line.Cache, want.cache)
		}
		if gotSteps := line.Steps != nil; gotSteps != want.wantSteps {
			t.Errorf("line %d steps present = %v, want %v", i, gotSteps, want.wantSteps)
		}
		if want.wantSteps {
			for _, step := range []string{"lookup_us", "rank_us", "tables_us", "filters_us", "sqlgen_us"} {
				if line.Steps[step] <= 0 {
					t.Errorf("line %d steps[%q] = %v, want positive", i, step, line.Steps[step])
				}
			}
		}
	}
}

// TestConcurrentSearchMetricsFeedback hammers /search, /metrics, and
// /feedback from concurrent goroutines — under -race this proves the
// instruments, the scrape path, and the rankings feedback publishes share
// the registry safely.
func TestConcurrentSearchMetricsFeedback(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, 3*iters)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			q := fmt.Sprintf(`{"query": "customer %d"}`, i%4)
			if resp, body := postJSON(t, ts.URL+"/search", q); resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("search %d: status %d, body %s", i, resp.StatusCode, body)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if resp, body := getBody(t, ts.URL+"/metrics"); resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("metrics %d: status %d, body %s", i, resp.StatusCode, body)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			body := fmt.Sprintf(`{"query": "customer", "result": 0, "like": %v}`, i%2 == 0)
			resp, data := postJSON(t, ts.URL+"/feedback", body)
			// 409 is a legal race (another feedback re-ranked mid-apply).
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Errorf("feedback %d: status %d, body %s", i, resp.StatusCode, data)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The final scrape must still parse and reflect the search volume.
	vals := scrapeOf(t, ts.Config.Handler).vals
	hit := vals[obs.SeriesKey("soda_search_requests_total", obs.Label{Name: "outcome", Value: "hit"})]
	cold := vals[obs.SeriesKey("soda_search_requests_total", obs.Label{Name: "outcome", Value: "cold"})]
	if hit+cold != iters {
		t.Errorf("search_requests_total hit+cold = %v, want %d", hit+cold, iters)
	}
}
