package server

import (
	"context"
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

// TestHandlerPanicBecomes500: a panicking handler answers 500 with the
// JSON error envelope and its request id, is recorded as a 500 under its
// trace id in the flight recorder, and is logged with its stack. A panic
// after the response started keeps what was written and is still
// recorded as a 500. http.ErrAbortHandler passes through to net/http.
func TestHandlerPanicBecomes500(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := NewWith(sharedSys(), Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	s.mux.HandleFunc("GET /test/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	s.mux.HandleFunc("GET /test/panic-late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late boom")
	})
	s.mux.HandleFunc("GET /test/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })

	req := httptest.NewRequest(http.MethodGet, "/test/panic", nil)
	req.Header.Set(obs.TraceparentHeader, fixedParent)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", rec.Code, rec.Body)
	}
	var env errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" || env.RequestID == "" {
		t.Fatalf("body %q is not the error envelope with a request id (%v)", rec.Body, err)
	}
	if got := rec.Header().Get("X-Request-Id"); got != fixedTraceID {
		t.Errorf("X-Request-Id = %q, want the propagated trace id", got)
	}
	entry, ok := s.flight.Get(fixedTraceID)
	if !ok || entry.Status != http.StatusInternalServerError || entry.Path != "/test/panic" {
		t.Fatalf("flight recorder entry = %+v, %v; want a 500 for /test/panic", entry, ok)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "panic serving GET /test/panic: boom") || !strings.Contains(logged, "goroutine") {
		t.Errorf("log = %q, want the panic and its stack", logged)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/test/panic-late", nil))
	if rec.Code != http.StatusAccepted || rec.Body.Len() != 0 {
		t.Errorf("late panic: status %d body %q, want the 202 already sent and nothing more", rec.Code, rec.Body)
	}
	if recent := s.flight.List(1); len(recent) != 1 || recent[0].Status != http.StatusInternalServerError {
		t.Errorf("late panic recorded as %+v, want status 500", recent)
	}

	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Errorf("ErrAbortHandler: recovered %v, want it re-panicked", v)
		}
	}()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/test/abort", nil))
}

// TestCanceledSearchIs503: a /search whose request context ends before
// the pipeline finishes answers 503 with the JSON error envelope, is
// recorded with outcome "canceled", and leaves nothing in the cache: the
// same query on a live request is answered in full.
func TestCanceledSearchIs503(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	sys.Warm()
	s := New(sys)
	const body = `{"query":"wealthy customers"}`

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set(obs.TraceparentHeader, fixedParent)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rec.Code, rec.Body)
	}
	var env errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error != context.Canceled.Error() || env.RequestID == "" {
		t.Fatalf("body %q is not the error envelope of a cancelled search (%v)", rec.Body, err)
	}
	entry, ok := s.flight.Get(fixedTraceID)
	if !ok || entry.Status != http.StatusServiceUnavailable || entry.Cache != "canceled" {
		t.Fatalf("flight recorder entry = %+v, %v; want a 503 with outcome canceled", entry, ok)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("live request after a cancelled one: status %d, body %s", rec.Code, rec.Body)
	}
	if st := sys.CacheStats(); st.Hits != 0 {
		t.Fatalf("cache stats %+v: the live request was served a cached answer", st)
	}
}
