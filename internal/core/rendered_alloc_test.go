//go:build !race

// The race detector instruments allocations, so the zero-alloc guard only
// runs in non-race builds (the tier-1 `go test ./...` run and the CI
// latency job both exercise it).

package core

import (
	"context"
	"testing"
	"time"

	"soda/internal/obs"
)

// TestCachedRenderedZeroAllocs is the committed guard for the tentpole:
// a cache-hit /search must not allocate — with metrics enabled. The loop
// includes the instrumentation the serving layer performs on a hit
// (latency histogram record, request counter increment, flight-recorder
// capture with the request's trace id), so the guard covers the full
// instrumented hit path, not just the cache lookup.
func TestCachedRenderedZeroAllocs(t *testing.T) {
	sys := newSys(t, Options{})
	const q = "wealthy customers"
	if _, _, err := sys.SearchRenderedContext(context.Background(), q, SearchOptions{}, "test", renderSQLs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, hit, _ := sys.SearchRenderedContext(ctx, q, SearchOptions{}, "test", renderSQLs); !hit {
		t.Fatal("priming did not populate the rendered cache")
	}
	hitLat := sys.MetricsRegistry().Histogram("soda_search_latency_seconds",
		"/search service time by cache outcome.", obs.Label{Name: "outcome", Value: "hit"})
	hits := sys.MetricsRegistry().Counter("soda_search_requests_total",
		"/search requests served, by cache outcome.", obs.Label{Name: "outcome", Value: "hit"})
	flight := obs.NewFlightRecorder(0, time.Millisecond, 20*time.Millisecond)
	tc := obs.MintTraceContext()
	sample := obs.FlightSample{
		TraceID:   tc.TraceID,
		RequestID: "alloc-test-000001",
		Method:    "POST",
		Path:      "/search",
		Status:    200,
		Start:     time.Now(),
		Outcome:   "hit",
		Query:     q,
		Backend:   "memory",
	}
	allocs := testing.AllocsPerRun(200, func() {
		start := time.Now()
		if _, hit, _ := sys.SearchRenderedContext(ctx, q, SearchOptions{}, "test", renderSQLs); !hit {
			t.Fatal("cache hit lost mid-run")
		}
		hits.Inc()
		hitLat.Record(time.Since(start))
		sample.Dur = time.Since(start)
		flight.Record(sample)
	})
	if allocs != 0 {
		t.Fatalf("instrumented cache-hit SearchRenderedContext allocates %.1f times per call, want 0", allocs)
	}
}
