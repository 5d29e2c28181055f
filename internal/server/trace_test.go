package server

// Tests for the distributed-tracing plumbing: traceparent adoption and
// minting, the /debug/requests flight recorder, the /healthz build and
// flight-recorder blocks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soda"
	"soda/internal/obs"
)

// fixedTraceID / fixedParent are the W3C trace-context example values —
// a caller-supplied traceparent every assertion can anchor on.
const (
	fixedTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	fixedParent  = "00-" + fixedTraceID + "-00f067aa0ba902b7-01"
)

// doJSON issues a request with a body and optional traceparent header.
func doJSON(t *testing.T, method, url, body, traceparent string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, data.Bytes()
}

// syncBuffer is a concurrency-safe log sink for assertions that race the
// handler's post-response log write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitContains polls a log sink until it contains want (post-response log
// writes race the client seeing the response).
func waitContains(t *testing.T, b *syncBuffer, want string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := b.String(); strings.Contains(s, want) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", want, b.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceparentAdopted: a valid inbound traceparent pins the trace id —
// X-Request-Id echoes it, the access log carries it, and the flight
// recorder retains the trace under it, with the same duration and status
// the access log reports.
func TestTraceparentAdopted(t *testing.T) {
	var log syncBuffer
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	srv := NewWith(sys, Config{AccessLog: &log})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/search", `{"query": "customer"}`, fixedParent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != fixedTraceID {
		t.Fatalf("X-Request-Id = %q, want the propagated trace id %q", got, fixedTraceID)
	}

	raw := waitContains(t, &log, fixedTraceID)
	var line requestLogLine
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(raw), "\n")[0]), &line); err != nil {
		t.Fatal(err)
	}
	if line.TraceID != fixedTraceID {
		t.Errorf("access log trace_id = %q, want %q", line.TraceID, fixedTraceID)
	}
	if line.RequestID == "" || line.RequestID == fixedTraceID {
		t.Errorf("access log request_id = %q, want a distinct local id", line.RequestID)
	}

	entry, ok := srv.flight.Get(fixedTraceID)
	if !ok {
		t.Fatalf("flight recorder has no trace %q", fixedTraceID)
	}
	if entry.TraceID != fixedTraceID || entry.Path != "/search" || entry.Query != "customer" {
		t.Errorf("flight entry = %+v, want trace %s for /search %q", entry, fixedTraceID, "customer")
	}
	if entry.Cache != "cold" {
		t.Errorf("flight entry cache = %q, want cold (first search)", entry.Cache)
	}
	// Both outputs read the one per-request record, so they agree exactly —
	// measured separately, the two durations would differ.
	if line.DurUs != entry.DurUs || line.Status != entry.Status || line.TraceID != entry.TraceID {
		t.Errorf("access log (dur_us %v, status %d, trace %s) disagrees with flight entry (dur_us %v, status %d, trace %s)",
			line.DurUs, line.Status, line.TraceID, entry.DurUs, entry.Status, entry.TraceID)
	}
}

// TestTraceparentMinted: without an inbound header the server mints a
// trace id — X-Request-Id stays the local request id, but the access log
// still carries a well-formed trace id.
func TestTraceparentMinted(t *testing.T) {
	var log syncBuffer
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(NewWith(sys, Config{AccessLog: &log}))
	t.Cleanup(ts.Close)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/search", `{"query": "customer"}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Request-Id")
	raw := waitContains(t, &log, reqID)
	var line requestLogLine
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(raw), "\n")[0]), &line); err != nil {
		t.Fatal(err)
	}
	if line.RequestID != reqID {
		t.Errorf("access log request_id = %q, want header id %q", line.RequestID, reqID)
	}
	if len(line.TraceID) != 32 || line.TraceID == strings.Repeat("0", 32) {
		t.Errorf("minted trace_id = %q, want 32 hex chars", line.TraceID)
	}
	// A garbled traceparent is ignored, not adopted.
	resp2, _ := doJSON(t, http.MethodPost, ts.URL+"/search", `{"query": "customer"}`, "00-bogus-bogus-01")
	if got := resp2.Header.Get("X-Request-Id"); strings.Contains(got, "bogus") || len(got) == 32 {
		t.Errorf("X-Request-Id after invalid traceparent = %q, want a local request id", got)
	}
}

// TestDebugRequests: the flight-recorder endpoint lists retained traces
// newest first with the recorder summary; ?id= returns one trace with its
// pipeline and backend spans; bad parameters fail cleanly.
func TestDebugRequests(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	// A cold search with snippets: pipeline step spans plus at least one
	// backend-execution span recorded through the request context.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/search", `{"query": "customer", "snippets": true}`, fixedParent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/debug/requests", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status = %d, body %s", resp.StatusCode, body)
	}
	var list DebugRequestsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.FlightRecorder.Size <= 0 || list.FlightRecorder.Recorded < 1 {
		t.Errorf("flight_recorder = %+v, want positive size and recorded", list.FlightRecorder)
	}
	if len(list.Requests) < 1 {
		t.Fatalf("requests = %d entries, want >= 1", len(list.Requests))
	}
	for i := 1; i < len(list.Requests); i++ {
		if list.Requests[i].Seq > list.Requests[i-1].Seq {
			t.Errorf("requests not newest-first: seq %d after %d", list.Requests[i].Seq, list.Requests[i-1].Seq)
		}
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/debug/requests?id="+fixedTraceID, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?id= status = %d, body %s", resp.StatusCode, body)
	}
	var entry obs.FlightEntry
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.TraceID != fixedTraceID || entry.Cache != "cold" || entry.SQL == "" || entry.Backend == "" {
		t.Errorf("entry = %+v, want trace %s, cold, resolved SQL, backend identity", entry, fixedTraceID)
	}
	got := make(map[string]bool, len(entry.Spans))
	for _, sp := range entry.Spans {
		got[sp.Name] = true
	}
	for _, want := range []string{"lookup", "rank", "tables", "filters", "sqlgen", "snippet", "backend:exec"} {
		if !got[want] {
			t.Errorf("trace is missing span %q (have %v)", want, entry.Spans)
		}
	}

	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/requests?id=nosuchtrace", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/requests?limit=bogus", "", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

// TestHealthzBuildAndFlight: /healthz carries the build-identity block
// (the JSON twin of soda_build_info, which TestCatalogFamilyMeanings
// checks) and the flight-recorder summary.
func TestHealthzBuildAndFlight(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	if resp, body := postJSON(t, ts.URL+"/search", `{"query": "customer"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Build.GoVersion != runtime.Version() {
		t.Errorf("build.go_version = %q, want %q", h.Build.GoVersion, runtime.Version())
	}
	if h.Build.Corpus != sys.World().Name() || h.Build.Backend == "" {
		t.Errorf("build = %+v, want corpus %q and a backend", h.Build, sys.World().Name())
	}
	if h.FlightRecorder.Size <= 0 || h.FlightRecorder.Recorded < 1 {
		t.Errorf("flight_recorder = %+v, want positive size and >= 1 recorded", h.FlightRecorder)
	}
}

// TestFinishSlowQueryLine drives finish directly: a request over its SLO
// logs one slow-query line whose slo_us is the threshold the flight
// recorder classified it against and bumps its outcome's
// soda_slow_requests_total; a request within its SLO does neither.
func TestFinishSlowQueryLine(t *testing.T) {
	var lines []string
	s := NewWith(sharedSys(), Config{Logf: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	for _, tc := range []struct {
		outcome   string
		dur       time.Duration
		counter   *obs.Counter
		wantSLOUs float64 // 0 = within SLO, nothing logged
	}{
		{"hit", 500 * time.Microsecond, s.slowHit, 0},
		{"hit", 2 * time.Millisecond, s.slowHit, 1000},
		{"cold", 2 * time.Millisecond, s.slowCold, 0},
		{"cold", 30 * time.Millisecond, s.slowCold, 20000},
	} {
		lines = lines[:0]
		before := tc.counter.Value()
		s.finish(&obs.FlightSample{TraceID: fixedTraceID, Method: "POST", Path: "/search",
			Status: http.StatusOK, Dur: tc.dur, Outcome: tc.outcome})
		bumped := tc.counter.Value() - before
		if tc.wantSLOUs == 0 {
			if len(lines) != 0 || bumped != 0 {
				t.Errorf("%s %v: within SLO but logged %q, counter +%d", tc.outcome, tc.dur, lines, bumped)
			}
			continue
		}
		if len(lines) != 1 || bumped != 1 {
			t.Fatalf("%s %v: logged %q, counter +%d; want one line and +1", tc.outcome, tc.dur, lines, bumped)
		}
		payload, ok := strings.CutPrefix(lines[0], "server/slow: ")
		var line slowQueryLine
		if !ok || json.Unmarshal([]byte(payload), &line) != nil {
			t.Fatalf("%s %v: not a server/slow JSON line: %q", tc.outcome, tc.dur, lines[0])
		}
		if line.SLOUs != tc.wantSLOUs || line.Cache != tc.outcome || line.TraceID != fixedTraceID {
			t.Errorf("%s %v: line = %+v, want slo_us %v", tc.outcome, tc.dur, line, tc.wantSLOUs)
		}
	}
}
