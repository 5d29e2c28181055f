package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// renderSQLs is a minimal render callback: the solutions' SQL texts, one
// per line — enough to detect re-renders and stale bytes.
func renderSQLs(a *Analysis) ([]byte, error) {
	var buf bytes.Buffer
	for _, sol := range a.Solutions {
		fmt.Fprintf(&buf, "%s\t%x\n", sol.SQLText(), sol.Score)
	}
	return buf.Bytes(), nil
}

// echoRender returns a render callback that emits a fixed payload —
// standing in for a server response that echoes the raw request query.
func echoRender(payload string) func(*Analysis) ([]byte, error) {
	return func(*Analysis) ([]byte, error) { return []byte(payload), nil }
}

func TestSearchRenderedServesCachedBytes(t *testing.T) {
	sys := newSys(t, Options{})
	d1, hit, err := sys.SearchRenderedContext(context.Background(), "wealthy customers", SearchOptions{}, "test", renderSQLs)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first render reported a cache hit")
	}
	d2, hit, err := sys.SearchRenderedContext(context.Background(), "wealthy customers", SearchOptions{}, "test", renderSQLs)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("repeat render missed the cache")
	}
	if &d1[0] != &d2[0] {
		t.Fatal("repeat did not return the cached byte slice")
	}

	// Feedback publishes a new ranking: the cached bytes must never be
	// served again, and the re-render reflects the new scores.
	a := search(t, sys, "wealthy customers")
	if err := sys.Feedback(a.Solutions[0], true); err != nil {
		t.Fatal(err)
	}
	d3, hit, err := sys.SearchRenderedContext(context.Background(), "wealthy customers", SearchOptions{}, "test", renderSQLs)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("stale rendered bytes served after feedback")
	}
	if bytes.Equal(d2, d3) {
		t.Fatal("re-render after feedback produced identical bytes (scores should have moved)")
	}
}

// TestSearchRenderedKeyedByRawInput: rendered bytes are keyed by the raw
// request string, so each whitespace variant is served the bytes rendered
// for *it* (a server response echoes the raw query).
func TestSearchRenderedKeyedByRawInput(t *testing.T) {
	sys := newSys(t, Options{})
	raw1, raw2 := "wealthy   customers", "  wealthy customers  "

	d1, hit, err := sys.SearchRenderedContext(context.Background(), raw1, SearchOptions{}, "test", echoRender(raw1))
	if err != nil || hit {
		t.Fatalf("first variant: hit=%v err=%v", hit, err)
	}
	d2, hit, err := sys.SearchRenderedContext(context.Background(), raw2, SearchOptions{}, "test", echoRender(raw2))
	if err != nil || hit {
		t.Fatalf("second variant: hit=%v err=%v", hit, err)
	}
	if string(d1) != raw1 || string(d2) != raw2 {
		t.Fatalf("rendered bytes crossed variants: %q / %q", d1, d2)
	}
	// Repeats now serve each variant its own bytes.
	for _, c := range []struct{ raw, want string }{{raw1, raw1}, {raw2, raw2}} {
		d, hit, err := sys.SearchRenderedContext(context.Background(), c.raw, SearchOptions{}, "test", echoRender("re-rendered"))
		if err != nil || !hit {
			t.Fatalf("repeat of %q: hit=%v err=%v", c.raw, hit, err)
		}
		if string(d) != c.want {
			t.Fatalf("repeat of %q served %q", c.raw, d)
		}
	}
}

// TestRenderedSearchFilesOneEntry: a cold rendered search probes one key
// and files one entry, the bytes, even for an input whose parsed form
// reads differently ("trade_dt 13" parses to "trade_dt '13'").
func TestRenderedSearchFilesOneEntry(t *testing.T) {
	sys := newSys(t, Options{})
	if _, hit, err := sys.SearchRenderedContext(context.Background(), "trade_dt 13", SearchOptions{}, "json", renderSQLs); err != nil || hit {
		t.Fatalf("cold search: hit=%v err=%v", hit, err)
	}
	if st := sys.CacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after one cold search = %+v, want 1 entry, 1 miss, 0 hits", st)
	}
}

// TestRenderedEntryDropsAnalysis: a rendered entry holds only its bytes,
// so the analysis they were rendered from is garbage once the search
// returns, and the repeat still hits with the same bytes.
func TestRenderedEntryDropsAnalysis(t *testing.T) {
	sys := newSys(t, Options{})
	var wa weak.Pointer[Analysis]
	render := func(a *Analysis) ([]byte, error) {
		wa = weak.Make(a)
		return renderSQLs(a)
	}
	d1, hit, err := sys.SearchRenderedContext(context.Background(), "wealthy customers", SearchOptions{}, "test", render)
	if err != nil || hit {
		t.Fatalf("cold search: hit=%v err=%v", hit, err)
	}
	runtime.GC()
	runtime.GC()
	if wa.Value() != nil {
		t.Fatal("the rendered entry keeps its analysis reachable")
	}
	d2, hit, err := sys.SearchRenderedContext(context.Background(), "wealthy customers", SearchOptions{}, "test", render)
	if err != nil || !hit || !bytes.Equal(d1, d2) {
		t.Fatalf("repeat: hit=%v err=%v, same bytes %v", hit, err, bytes.Equal(d1, d2))
	}
}

// TestBothFormsConcurrently: goroutines ask for one raw input as an
// analysis and as rendered bytes at once; each form's callers get that
// form's value, and each form files one entry.
func TestBothFormsConcurrently(t *testing.T) {
	sys := newSys(t, Options{})
	const q, goroutines = "customers Zürich financial instruments", 8
	want, err := renderSQLs(search(t, newSys(t, Options{CacheSize: -1}), q))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					a, err := sys.SearchWith(q, SearchOptions{})
					if err != nil || a == nil || len(a.Solutions) == 0 {
						t.Errorf("analysis form: %v", err)
						return
					}
					continue
				}
				d, _, err := sys.SearchRenderedContext(context.Background(), q, SearchOptions{}, "test", renderSQLs)
				if err != nil || !bytes.Equal(d, want) {
					t.Errorf("rendered form: err=%v bytes %q, want %q", err, d, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sys.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per form)", st.Entries)
	}
	if a1, a2 := search(t, sys, q), search(t, sys, q); a1 != a2 {
		t.Fatal("analysis-form repeats must return the same analysis")
	}
}

func TestSearchRenderedKeyIncludesDialectAndSnippets(t *testing.T) {
	sys := newSys(t, Options{})
	seed := func(so SearchOptions, payload string) {
		t.Helper()
		if _, hit, err := sys.SearchRenderedContext(context.Background(), "customer", so, "test", echoRender(payload)); err != nil || hit {
			t.Fatalf("seeding %+v: hit=%v err=%v", so, hit, err)
		}
	}
	seed(SearchOptions{}, "generic")
	seed(SearchOptions{Snippets: true}, "snippets")
	if d, hit, _ := sys.SearchRenderedContext(context.Background(), "customer", SearchOptions{}, "test", echoRender("x")); !hit || string(d) != "generic" {
		t.Fatalf("plain repeat: hit=%v data=%q", hit, d)
	}
	if d, hit, _ := sys.SearchRenderedContext(context.Background(), "customer", SearchOptions{Snippets: true}, "test", echoRender("x")); !hit || string(d) != "snippets" {
		t.Fatalf("snippet repeat: hit=%v data=%q", hit, d)
	}
}

func TestSearchRenderedDisabledCache(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	for i := 0; i < 2; i++ {
		if _, hit, err := sys.SearchRenderedContext(context.Background(), "customer", SearchOptions{}, "test", renderSQLs); err != nil || hit {
			t.Fatalf("call %d with caching disabled: hit=%v err=%v", i, hit, err)
		}
	}
}

// TestCacheStatsEntriesServableOnly: after feedback, /healthz must not
// report the superseded ranking's answers as cached capacity.
func TestCacheStatsEntriesServableOnly(t *testing.T) {
	sys := newSys(t, Options{})
	search(t, sys, "customer")
	search(t, sys, "transactions")
	if st := sys.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries before feedback = %d, want 2", st.Entries)
	}
	a := search(t, sys, "wealthy customers") // third entry
	if err := sys.Feedback(a.Solutions[0], true); err != nil {
		t.Fatal(err)
	}
	// Every cached answer predates the feedback: none is servable.
	if st := sys.CacheStats(); st.Entries != 0 {
		t.Fatalf("entries after feedback = %d, want 0 (stale answers are not capacity)", st.Entries)
	}
	search(t, sys, "customer")
	if st := sys.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries after re-search = %d, want 1", st.Entries)
	}
}
