package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/sqlast"
)

func TestCacheHitServesSameAnalysis(t *testing.T) {
	sys := newSys(t, Options{})
	a1 := search(t, sys, "wealthy customers")
	a2 := search(t, sys, "wealthy customers")
	if a1 != a2 {
		t.Fatal("repeated query should be served from the cache")
	}
	st := sys.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// searchWith is the SearchWith analogue of the search helper.
func searchWith(t *testing.T, sys *System, q string, so SearchOptions) *Analysis {
	t.Helper()
	a, err := sys.SearchWith(q, so)
	if err != nil {
		t.Fatalf("SearchWith(%q, %+v): %v", q, so, err)
	}
	return a
}

// TestCacheKeyIncludesDialect pins the fix for the cache serving one
// dialect's SQL to a request for another: the key carries the dialect,
// and same-dialect repeats still share an entry.
func TestCacheKeyIncludesDialect(t *testing.T) {
	sys := newSys(t, Options{})
	generic := searchWith(t, sys, "wealthy customers", SearchOptions{})
	db2 := searchWith(t, sys, "wealthy customers", SearchOptions{Dialect: sqlast.DB2})
	if generic == db2 {
		t.Fatal("a cached generic answer must not be served to a db2 request")
	}
	topN := searchWith(t, sys, "top 10 trading volume customer", SearchOptions{Dialect: sqlast.DB2})
	if got := best(t, topN).SQLText(); !strings.Contains(got, "FETCH FIRST 10 ROWS ONLY") {
		t.Fatalf("db2 SQL should use FETCH FIRST, got:\n%s", got)
	}
	if again := searchWith(t, sys, "wealthy customers", SearchOptions{Dialect: sqlast.DB2}); again != db2 {
		t.Fatal("repeated db2 request should hit the db2 cache entry")
	}
	if again := searchWith(t, sys, "wealthy customers", SearchOptions{}); again != generic {
		t.Fatal("repeated generic request should hit the generic cache entry")
	}
}

// TestCacheKeyIncludesSnippets pins the fix for snippet and non-snippet
// answers sharing a cache entry: a row-less answer must never be served
// to a snippet request and vice versa.
func TestCacheKeyIncludesSnippets(t *testing.T) {
	sys := newSys(t, Options{})
	plain := searchWith(t, sys, "wealthy customers", SearchOptions{})
	snip := searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true})
	if plain == snip {
		t.Fatal("snippet and non-snippet requests must not share a cache entry")
	}
	if best(t, plain).Snippet != nil {
		t.Fatal("non-snippet answer should carry no snippet rows")
	}
	if sol := best(t, snip); sol.Snippet == nil && sol.SnippetErr == "" {
		t.Fatal("snippet answer should carry executed rows (or an error)")
	}
	if again := searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true}); again != snip {
		t.Fatal("repeated snippet request should hit the snippet cache entry")
	}
}

// TestCachedSnippetsZeroExecutions is the ROADMAP bug: /search?snippets
// used to re-execute every solution's SQL on each answer-cache hit. Now
// the rows ride the cache entry and a hit performs zero SQL executions.
func TestCachedSnippetsZeroExecutions(t *testing.T) {
	sys := newSys(t, Options{})
	searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true})
	if sys.ExecCount() == 0 {
		t.Fatal("the initial snippet search should execute SQL")
	}
	before := sys.ExecCount()
	a := searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true})
	if got := sys.ExecCount(); got != before {
		t.Fatalf("cache hit executed %d statement(s), want 0", got-before)
	}
	// Serving the cached rows through Snippet() is also free.
	if _, err := sys.Snippet(best(t, a)); err != nil {
		t.Fatal(err)
	}
	if got := sys.ExecCount(); got != before {
		t.Fatalf("Snippet() on a cached solution executed %d statement(s), want 0", got-before)
	}
}

// TestSnippetRowsInvalidatedByFeedback pins that cached snippet rows die
// with the ranking cache of the analysis they ride on.
func TestSnippetRowsInvalidatedByFeedback(t *testing.T) {
	sys := newSys(t, Options{})
	a1 := searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true})
	before := sys.ExecCount()
	if err := sys.Feedback(best(t, a1), true); err != nil {
		t.Fatal(err)
	}
	a2 := searchWith(t, sys, "wealthy customers", SearchOptions{Snippets: true})
	if a1 == a2 {
		t.Fatal("feedback must invalidate the cached snippet answer")
	}
	if got := sys.ExecCount(); got == before {
		t.Fatal("the re-computed snippet answer should have re-executed its SQL")
	}
}

// TestCancelledSnippetsNotCached: a search whose snippet executions the
// request's context cut short answers with the context's error, and
// neither the analysis nor its rendered bytes are cached for the next
// request.
// cancelling wraps a backend and cancels a context from inside the
// pipeline: on Exec (the snippet step) or on Catalog (Step 5 reads the
// catalog to pick a counted entity's key column).
type cancelling struct {
	backend.Executor
	onExec, onCatalog context.CancelFunc
}

func (c *cancelling) Exec(ctx context.Context, sel *sqlast.Select) (*backend.Result, error) {
	if c.onExec != nil {
		c.onExec()
	}
	return c.Executor.Exec(ctx, sel)
}

func (c *cancelling) Catalog() backend.Catalog {
	if c.onCatalog != nil {
		c.onCatalog()
	}
	return c.Executor.Catalog()
}

func TestCancelledSnippetsNotCached(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sys := NewSystem(&cancelling{Executor: memory.New(world.DB), onExec: cancel}, world.Meta, world.Index, Options{})
	so := SearchOptions{Snippets: true}
	a, err := sys.SearchWithContext(ctx, "wealthy customers", so)
	if err != nil {
		t.Fatal(err)
	}
	if got := best(t, a).SnippetErr; got != context.Canceled.Error() {
		t.Fatalf("SnippetErr = %q, want %q", got, context.Canceled)
	}
	if _, _, err := sys.SearchRenderedContext(ctx, "wealthy customers", so, "test", renderSQLs); !errors.Is(err, context.Canceled) {
		t.Fatalf("search under a cancelled context: err = %v, want %v", err, context.Canceled)
	}
	if st := sys.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after cancelled searches, want 0", st.Entries)
	}
	if sol := best(t, searchWith(t, sys, "wealthy customers", so)); sol.Snippet == nil {
		t.Fatalf("next search: no snippet rows (error %q)", sol.SnippetErr)
	}
}

// TestSearchStopsBetweenSteps cancels the request's context from inside
// Step 5: the search returns context.Canceled instead of an answer and
// caches nothing, so the next search of the query runs the pipeline.
func TestSearchStopsBetweenSteps(t *testing.T) {
	const q = "top 10 count (transactions) group by (company name)"
	ctx, cancel := context.WithCancel(context.Background())
	sys := NewSystem(&cancelling{Executor: memory.New(world.DB), onCatalog: cancel}, world.Meta, world.Index, Options{})
	a, err := sys.SearchWithContext(ctx, q, SearchOptions{})
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("search cancelled in a step: err = %v, answer returned %t; want %v and none", err, a != nil, context.Canceled)
	}
	if ctx.Err() == nil {
		t.Fatal("the query never reached the catalog: pick one that counts an entity")
	}
	if _, _, err := sys.SearchRenderedContext(ctx, q, SearchOptions{}, "test", renderSQLs); !errors.Is(err, context.Canceled) {
		t.Fatalf("rendered search under a cancelled context: err = %v, want %v", err, context.Canceled)
	}
	before := sys.CacheStats()
	if before.Entries != 0 {
		t.Fatalf("cache holds %d entries after cancelled searches, want 0", before.Entries)
	}
	if best(t, search(t, sys, q)).SQL == nil {
		t.Fatal("next search: no SQL")
	}
	if after := sys.CacheStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("next search: stats %+v after %+v, want one more miss and no hit", after, before)
	}
}

// TestCacheStoreAfterWriteNotServed: a write that lands while a cold
// search runs publishes a new ranking, so the answer the search computed
// under the old one is filed in the old ranking's cache, and the repeat of
// the query runs the pipeline again.
func TestCacheStoreAfterWriteNotServed(t *testing.T) {
	be := &cancelling{Executor: memory.New(world.DB)}
	sys := NewSystem(be, world.Meta, world.Index, Options{})
	liked := best(t, search(t, sys, "customers"))
	var write sync.Once
	var werr error
	be.onExec = func() { write.Do(func() { werr = sys.Feedback(liked, true) }) }

	const q = "wealthy customers"
	so := SearchOptions{Snippets: true}
	rk := sys.ranking.Load()
	if _, hit, err := sys.SearchRenderedContext(context.Background(), q, so, "test", renderSQLs); err != nil || hit {
		t.Fatalf("cold search: hit=%v err=%v", hit, err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if sys.ranking.Load() == rk {
		t.Fatal("no write landed during the search")
	}
	before := sys.CacheStats()
	if _, hit, err := sys.SearchRenderedContext(context.Background(), q, so, "test", renderSQLs); err != nil || hit {
		t.Fatalf("repeat after the write: hit=%v err=%v, want a cold run", hit, err)
	}
	if after := sys.CacheStats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("repeat: stats %+v after %+v, want one more miss and no hit", after, before)
	}
}

func TestCacheDisabled(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	a1 := search(t, sys, "wealthy customers")
	a2 := search(t, sys, "wealthy customers")
	if a1 == a2 {
		t.Fatal("CacheSize < 0 must disable the cache")
	}
	if st := sys.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("stats = %+v, want zero value", st)
	}
}

func TestCacheInvalidatedByFeedback(t *testing.T) {
	sys := newSys(t, Options{})
	a1 := search(t, sys, "wealthy customers")
	if err := sys.Feedback(best(t, a1), true); err != nil {
		t.Fatal(err)
	}
	a2 := search(t, sys, "wealthy customers")
	if a1 == a2 {
		t.Fatal("feedback must invalidate the cached answer")
	}
	if err := sys.ResetFeedback(); err != nil {
		t.Fatal(err)
	}
	a3 := search(t, sys, "wealthy customers")
	if a3 == a2 {
		t.Fatal("ResetFeedback must invalidate the cached answer")
	}
}

func TestCacheFeedbackChangesScores(t *testing.T) {
	sys := newSys(t, Options{})
	a1 := search(t, sys, "customer")
	before := best(t, a1).Score
	if err := sys.Feedback(best(t, a1), true); err != nil {
		t.Fatal(err)
	}
	a2 := search(t, sys, "customer")
	after := best(t, a2).Score
	if after <= before {
		t.Fatalf("liked solution score %v should exceed pre-feedback %v", after, before)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// CacheSize is an exact upper bound, even below the shard count.
	for _, size := range []int{1, 3, 40} {
		sys := newSys(t, Options{CacheSize: size})
		queries := []string{
			"customer", "wealthy customers", "Sara Guttinger", "transactions",
			"securities", "parties", "individuals", "organizations",
		}
		for _, q := range queries {
			search(t, sys, q)
		}
		if st := sys.CacheStats(); st.Entries > size {
			t.Fatalf("CacheSize=%d: entries = %d, want <= %d", size, st.Entries, size)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// Steps 1-5 run on the calling goroutine whatever the Parallelism;
	// snippet execution is what the pool spreads, so the searches ask for
	// snippets.
	seq := newSys(t, Options{Parallelism: 1, CacheSize: -1})
	par := newSys(t, Options{Parallelism: 8, CacheSize: -1})
	so := SearchOptions{Snippets: true}
	for _, q := range determinismQueries {
		// The whole trace, not just SQL: tables, joins, filters, scores
		// and the snippet rows.
		wa := searchWith(t, seq, q, so)
		ga := searchWith(t, par, q, so)
		if len(wa.Solutions) != len(ga.Solutions) {
			t.Fatalf("%q: %d vs %d solutions", q, len(wa.Solutions), len(ga.Solutions))
		}
		for i := range wa.Solutions {
			w, g := wa.Solutions[i], ga.Solutions[i]
			if w.SQLText() != g.SQLText() {
				t.Fatalf("%q solution %d:\nsequential: %s\nparallel:   %s", q, i, w.SQLText(), g.SQLText())
			}
			if wt, gt := solutionTrace(w), solutionTrace(g); wt != gt {
				t.Fatalf("%q solution %d differs beyond SQL:\nsequential: %s\nparallel:   %s", q, i, wt, gt)
			}
			if ws, gs := snippetTrace(w), snippetTrace(g); ws != gs {
				t.Fatalf("%q solution %d snippet differs:\nsequential: %s\nparallel:   %s", q, i, ws, gs)
			}
		}
	}
}

// snippetTrace renders a solution's snippet rows or error.
func snippetTrace(sol *Solution) string {
	if sol.Snippet == nil {
		return "error: " + sol.SnippetErr
	}
	return fmt.Sprintf("%v %v", sol.Snippet.Columns, sol.Snippet.Rows)
}

// TestForEachSolutionPanicPropagates pins the worker-pool contract: a
// panic inside a step resurfaces on the calling goroutine (where the
// daemon's per-request recovery can catch it) instead of killing the
// process from a bare goroutine.
func TestForEachSolutionPanicPropagates(t *testing.T) {
	sys := newSys(t, Options{Parallelism: 4})
	sols := []*Solution{{}, {}, {}, {}, {}, {}, {}, {}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a worker did not propagate to the caller")
		} else if r != "boom" {
			t.Fatalf("propagated %v, want boom", r)
		}
	}()
	var n atomic.Int64
	sys.forEachSolution(sols, func(sol *Solution) {
		if n.Add(1) == 3 {
			panic("boom")
		}
	})
}

// solutionTrace renders every derived field of a solution (pointers
// dereferenced) so sequential and parallel runs can be compared exactly.
func solutionTrace(sol *Solution) string {
	return fmt.Sprintf("score=%.6f tables=%v primaries=%v sqlTables=%v joins=%v filters=%v groupBy=%v disconnected=%v sql=%q",
		sol.Score, sol.TableNames(), sol.Primaries, sol.SQLTables, sol.Joins, sol.Filters, sol.GroupBy, sol.Disconnected, sol.SQLText())
}

func TestConcurrentSearchesShareCache(t *testing.T) {
	sys := newSys(t, Options{})
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]*Analysis, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				a, err := sys.Search("customers Zürich financial instruments")
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = a
			}
		}(g)
	}
	wg.Wait()
	st := sys.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("stats = %+v, want cache hits under concurrent repetition", st)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] == nil {
			t.Fatalf("goroutine %d recorded no result", g)
		}
	}
}

// TestCacheKeyIncludesBackend pins the fix for backend-agnostic cache
// keys: with switchable execution backends, snippet rows produced by one
// backend must never be served to a system pointed at another, so the
// executor identity is part of the key.
func TestCacheKeyIncludesBackend(t *testing.T) {
	cacheKey := func(backendName string) string {
		return string(appendCacheKey(nil, "wealthy customers", "", sqlast.Generic, true, backendName))
	}
	mem := cacheKey("memory")
	pg := cacheKey("sqldb:pgwire:0a1b2c3d")
	if mem == pg {
		t.Fatal("cache keys for different backends must differ")
	}
	if got := cacheKey("memory"); got != mem {
		t.Fatal("cache key must be deterministic per backend")
	}
}
