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
	"time"

	"soda"
	"soda/internal/obs"
)

// scrapeMetrics GETs /metrics and parses the exposition into series values.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, body := getBody(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	vals, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, body)
	}
	return vals
}

// TestMetricsEndpointCoversAllLayers: one cold search plus one feedback
// write must leave traces in every layer's instruments — pipeline steps,
// cache, backend, serving latency — under their stable metric names.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ { // second request is the cache hit
		if resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
		}
	}
	vals := scrapeMetrics(t, ts.URL)

	label := func(name, lname, lval string) string {
		return obs.SeriesKey(name, obs.Label{Name: lname, Value: lval})
	}
	// Pipeline: every step histogram saw exactly the one cold search.
	for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen"} {
		key := label("soda_pipeline_step_seconds_count", "step", step)
		if vals[key] < 1 {
			t.Errorf("%s = %v, want >= 1", key, vals[key])
		}
	}
	// Serving: one hit, one cold, both counted and timed.
	for _, outcome := range []string{"hit", "cold"} {
		if got := vals[label("soda_search_requests_total", "outcome", outcome)]; got != 1 {
			t.Errorf("search_requests_total{outcome=%q} = %v, want 1", outcome, got)
		}
		if got := vals[label("soda_search_latency_seconds_count", "outcome", outcome)]; got != 1 {
			t.Errorf("search_latency_seconds_count{outcome=%q} = %v, want 1", outcome, got)
		}
	}
	// Cache: the repeat was a hit, the first was a miss.
	if got := vals[obs.SeriesKey("soda_cache_hits_total")]; got != 1 {
		t.Errorf("soda_cache_hits_total = %v, want 1", got)
	}
	if vals[obs.SeriesKey("soda_cache_misses_total")] < 1 {
		t.Errorf("soda_cache_misses_total = %v, want >= 1", vals[obs.SeriesKey("soda_cache_misses_total")])
	}
	if vals[obs.SeriesKey("soda_cache_entries")] < 1 {
		t.Errorf("soda_cache_entries = %v, want >= 1", vals[obs.SeriesKey("soda_cache_entries")])
	}
	// Shed counter exists (and is zero — nothing was saturated).
	if got, ok := vals[obs.SeriesKey("soda_search_shed_total")]; !ok || got != 0 {
		t.Errorf("soda_search_shed_total = %v (present=%v), want 0", got, ok)
	}
}

// TestScrapeParsersAgree: on a live scrape of every instrument in the
// process, the flat view (ParseText, what the benchmark and the delta
// reports read) holds exactly the family view's points (ParseFamilies,
// what cmd/metricslint reads) — one entry per sample line, none
// collapsed, each under SeriesKey of its full name and labels.
func TestScrapeParsersAgree(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	postJSON(t, ts.URL+"/search", `{"query": "wealthy customers", "snippets": true}`)
	postJSON(t, ts.URL+"/feedback", `{"query": "wealthy customers", "result": 0, "like": true}`)
	_, body := getBody(t, ts.URL+"/metrics")

	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	flat, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseFamilies(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if samples < 50 || len(flat) != samples {
		t.Fatalf("scrape has %d sample lines, ParseText %d series", samples, len(flat))
	}
	points := 0
	for _, f := range fams {
		for _, p := range f.Points {
			points++
			key := obs.SeriesKey(f.Name+p.Suffix, p.Labels...)
			if got, ok := flat[key]; !ok || got != p.Value {
				t.Errorf("%s: ParseFamilies has %v, ParseText %v (present %v)", key, p.Value, got, ok)
			}
		}
	}
	if points != samples {
		t.Fatalf("ParseFamilies kept %d points of %d sample lines", points, samples)
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
// instruments, the scrape path, and the feedback epoch bumps share the
// registry safely.
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
	vals := scrapeMetrics(t, ts.URL)
	hit := vals[obs.SeriesKey("soda_search_requests_total", obs.Label{Name: "outcome", Value: "hit"})]
	cold := vals[obs.SeriesKey("soda_search_requests_total", obs.Label{Name: "outcome", Value: "cold"})]
	if hit+cold != iters {
		t.Errorf("search_requests_total hit+cold = %v, want %d", hit+cold, iters)
	}
}

// TestCatalogFamilyMeanings: each catalog family that no other test
// reads is checked against the event it counts, on a live /metrics
// scrape of a persistent System.
func TestCatalogFamilyMeanings(t *testing.T) {
	ts, sys := newPersistentServer(t, t.TempDir())
	t.Cleanup(func() { sys.Close() })
	scrape := func(t *testing.T, base string) func(name string, labels ...obs.Label) float64 {
		vals := scrapeMetrics(t, base)
		return func(name string, labels ...obs.Label) float64 {
			t.Helper()
			v, ok := vals[obs.SeriesKey(name, labels...)]
			if !ok {
				t.Fatalf("%s is not served", obs.SeriesKey(name, labels...))
			}
			return v
		}
	}
	post := func(t *testing.T, path, body string, want int) {
		t.Helper()
		if resp, got := postJSON(t, ts.URL+path, body); resp.StatusCode != want {
			t.Fatalf("POST %s %s: status %d, want %d: %s", path, body, resp.StatusCode, want, got)
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"backend exec by op", func(t *testing.T) {
			// One statement the backend rejects on the exec path, then a
			// saved-query snippet search: the approved answer runs on the
			// prepared path, the other snippets on the exec path.
			post(t, "/sql", `{"sql": "select nosuchcol from parties"}`, http.StatusBadRequest)
			if status, body := do(t, http.MethodPut, ts.URL+"/admin/queries/big%20earners", bigEarnersBody); status != http.StatusOK {
				t.Fatalf("PUT saved query: status %d: %s", status, body)
			}
			post(t, "/search", `{"query": "big earners salary >= 50000", "snippets": true}`, http.StatusOK)
			v := scrape(t, ts.URL)
			bl := obs.Label{Name: "backend", Value: sys.Backend()}
			for _, op := range []string{"exec", "prepared"} {
				ol := obs.Label{Name: "op", Value: op}
				total := v("soda_backend_exec_total", bl, ol)
				if total < 1 {
					t.Errorf("soda_backend_exec_total{op=%q} = %v, want >= 1", op, total)
				}
				if n := v("soda_backend_exec_seconds_count", bl, ol); n != total {
					t.Errorf("soda_backend_exec_seconds_count{op=%q} = %v, want %v (one per execution)", op, n, total)
				}
			}
			if got := v("soda_backend_exec_errors_total", bl, obs.Label{Name: "op", Value: "exec"}); got != 1 {
				t.Errorf("soda_backend_exec_errors_total{op=exec} = %v, want 1 (the rejected statement)", got)
			}
			if got := v("soda_backend_exec_errors_total", bl, obs.Label{Name: "op", Value: "prepared"}); got != 0 {
				t.Errorf("soda_backend_exec_errors_total{op=prepared} = %v, want 0", got)
			}
		}},
		{"wal size and snapshot writes", func(t *testing.T) {
			v := scrape(t, ts.URL)
			records, bytes := v("soda_wal_records"), v("soda_wal_bytes")
			appends := v("soda_wal_append_seconds_count")
			snaps, compactions := v("soda_snapshot_write_seconds_count"), v("soda_store_compactions_total")
			for i := 0; i < 2; i++ {
				post(t, "/feedback", `{"query": "customer", "result": 0, "like": true}`, http.StatusOK)
				v = scrape(t, ts.URL)
				if got := v("soda_wal_records"); got != records+1 {
					t.Errorf("feedback %d: soda_wal_records = %v, want %v", i, got, records+1)
				}
				if got := v("soda_wal_bytes"); got <= bytes {
					t.Errorf("feedback %d: soda_wal_bytes = %v, want > %v", i, got, bytes)
				}
				if got := v("soda_wal_append_seconds_count"); got != appends+1 {
					t.Errorf("feedback %d: soda_wal_append_seconds_count = %v, want %v", i, got, appends+1)
				}
				records, bytes, appends = v("soda_wal_records"), v("soda_wal_bytes"), v("soda_wal_append_seconds_count")
			}
			for i := 0; i < 2; i++ {
				post(t, "/admin/snapshot", ``, http.StatusOK)
				v = scrape(t, ts.URL)
				if r, b := v("soda_wal_records"), v("soda_wal_bytes"); r != 0 || b != 0 {
					t.Errorf("snapshot %d: soda_wal_records = %v, soda_wal_bytes = %v, want 0 and 0", i, r, b)
				}
				if got := v("soda_snapshot_write_seconds_count"); got != snaps+1 {
					t.Errorf("snapshot %d: soda_snapshot_write_seconds_count = %v, want %v", i, got, snaps+1)
				}
				if got := v("soda_store_compactions_total"); got != compactions+1 {
					t.Errorf("snapshot %d: soda_store_compactions_total = %v, want %v", i, got, compactions+1)
				}
				if got := v("soda_wal_fsync_seconds_count"); got < 1 {
					t.Errorf("snapshot %d: soda_wal_fsync_seconds_count = %v, want >= 1 (the appends were synced)", i, got)
				}
				snaps, compactions = v("soda_snapshot_write_seconds_count"), v("soda_store_compactions_total")
			}
		}},
		{"peer last contact", func(t *testing.T) {
			// Replica a pulls from b's address; b answers 503 until it
			// boots, so a has no contact with it until then.
			bh := &swapHandler{}
			bsrv := httptest.NewServer(bh)
			t.Cleanup(bsrv.Close)
			open := func(peer, id string) *soda.System {
				s, err := soda.Open(soda.MiniBank(), soda.Options{Peers: []string{peer}, ReplicaID: id,
					SyncInterval: 10 * time.Millisecond}, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			asrv := httptest.NewServer(New(open(bsrv.URL, "a")))
			t.Cleanup(asrv.Close)

			pl := obs.Label{Name: "peer", Value: bsrv.URL}
			if got := scrape(t, asrv.URL)("soda_cluster_peer_last_contact_seconds", pl); got != -1 {
				t.Fatalf("before first contact: soda_cluster_peer_last_contact_seconds = %v, want -1", got)
			}
			bh.set(New(open(asrv.URL, "b")))
			deadline := time.Now().Add(5 * time.Second)
			for {
				got := scrape(t, asrv.URL)("soda_cluster_peer_last_contact_seconds", pl)
				if got >= 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after b booted: soda_cluster_peer_last_contact_seconds = %v, want >= 0", got)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
