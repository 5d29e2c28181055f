//go:build !race

// The race detector instruments allocations, so the allocation guard only
// runs in non-race builds.

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is the least a ResponseWriter can be: a reused header map
// and a body that goes nowhere, so every allocation counted is the
// serving layer's own (or encoding/json's).
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestSearchHitAllocs caps what one cache-hit /search costs the serving
// layer: one ServeHTTP, with the request record, ids, headers, body
// decode and write. It makes 12 allocations: 7 in encoding/json's
// decoder, and one each for the request record, the request id, the
// trace ids, the Content-Length value and the request copy that carries
// the context. The cap leaves room for a Go release to move the decoder's
// count.
func TestSearchHitAllocs(t *testing.T) {
	s := New(sharedSys())
	body := []byte(`{"query":"wealthy customers"}`)
	rd := bytes.NewReader(body)
	rc := io.NopCloser(rd)
	r := httptest.NewRequest(http.MethodPost, "/search", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		r.Body, r.ContentLength = rc, int64(len(body))
		s.ServeHTTP(w, r)
	}
	serve() // prime the answer cache
	hits := s.reqHit.Value()
	allocs := testing.AllocsPerRun(200, serve)
	if got := s.reqHit.Value() - hits; got < 200 {
		t.Fatalf("%d of the measured requests were cache hits, want all", got)
	}
	if allocs > 14 {
		t.Fatalf("cache-hit ServeHTTP allocates %.1f times per request, want at most 14", allocs)
	}
	t.Logf("cache-hit ServeHTTP: %.1f allocations per request", allocs)
}
