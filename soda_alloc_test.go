//go:build !race

// The race detector instruments allocations, so the zero-alloc guard only
// runs in non-race builds.

package soda_test

import (
	"context"
	"testing"

	"soda"
)

// TestSearchRenderedZeroAllocs pins the facade's hit path next to
// the core guard (TestCachedRenderedZeroAllocs): the facade reaches the
// one search path in core by wrapping the caller's render in an adapter
// closure, and on a primed query that closure must stay on the stack —
// dialect resolution, key build and lookup allocate nothing.
func TestSearchRenderedZeroAllocs(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	opts := soda.SearchOptions{Dialect: "postgres"}
	const q = "wealthy customers"
	// render captures a local, as the server's does (request info): a
	// real closure, so an escaping adapter would heap-allocate it.
	renders := 0
	render := func(ans *soda.Answer) ([]byte, error) {
		renders++
		return []byte(ans.Results[0].SQL), nil
	}
	if _, hit, err := sys.SearchRendered(q, opts, render); err != nil || hit {
		t.Fatalf("priming: hit=%v err=%v", hit, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, _ := sys.SearchRendered(q, opts, render); !hit {
			t.Fatal("cache hit lost mid-run")
		}
	})
	if renders != 1 {
		t.Fatalf("render ran %d times, want once (priming only)", renders)
	}
	if allocs != 0 {
		t.Fatalf("facade cache-hit SearchRendered allocates %.1f times per call, want 0", allocs)
	}
}

// TestSearchJSONContextZeroAllocs pins the /search entry's hit path: on a
// primed query the cached body comes back without allocating, and the
// onCold callback — a real closure, as the server's is — does not run.
func TestSearchJSONContextZeroAllocs(t *testing.T) {
	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
	ctx := context.Background()
	opts := soda.SearchOptions{Dialect: "db2", Snippets: true}
	const q = "wealthy customers"
	colds := 0
	onCold := func(soda.Timings, string) { colds++ }
	if _, hit, err := sys.SearchJSONContext(ctx, q, opts, onCold); err != nil || hit {
		t.Fatalf("priming: hit=%v err=%v", hit, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, _ := sys.SearchJSONContext(ctx, q, opts, onCold); !hit {
			t.Fatal("cache hit lost mid-run")
		}
	})
	if colds != 1 {
		t.Fatalf("onCold ran %d times, want once (priming only)", colds)
	}
	if allocs != 0 {
		t.Fatalf("cache-hit SearchJSONContext allocates %.1f times per call, want 0", allocs)
	}
}
