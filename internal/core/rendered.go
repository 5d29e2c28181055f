package core

import (
	"context"
	"sync"

	"soda/internal/sqlast"
)

// The rendered fast path: the serving layer caches the exact JSON bytes
// it encoded for an answer alongside the Analysis, keyed by the *raw*
// request input (not the canonical query form — canonicalisation would
// require parsing, which allocates, and the response echoes the raw
// query anyway) and by the renderer's name, so two renderings of one
// answer never serve each other's bytes. A repeated request is then a
// pooled-scratch key build, one shard lookup and a byte-slice write: zero
// heap allocations, no pipeline, no re-marshal. Both probes of the one
// search path — raw key here, canonical key in SearchWithContext — go
// through cacheLookup and cacheStore into the cache of the ranking the
// search loaded, so bytes and analyses go stale together.

// keyScratch is per-request scratch for building cache keys without
// allocating. The pool holds pointers to a wrapper struct — pooling bare
// slices would box them into the pool's interface value on every Put.
type keyScratch struct{ buf []byte }

var keyScratchPool = sync.Pool{
	New: func() any { return &keyScratch{buf: make([]byte, 0, 128)} },
}

// searchDialect resolves the dialect a search renders in.
func (s *System) searchDialect(so SearchOptions) *sqlast.Dialect {
	if so.Dialect != nil {
		return so.Dialect
	}
	return s.Opt.Dialect
}

// appendCacheKey appends the answer-cache key to dst: the query text (raw
// input or canonical form), the renderer's name when it is not "", plus
// every per-request knob that changes the answer's content — including the
// backend identity, because cached snippet rows were produced by one
// backend's execution and must never be served for another (two systems
// pointed at different warehouses can legitimately return different rows
// for the same statement).
func appendCacheKey(dst []byte, q, renderer string, d *sqlast.Dialect, snippets bool, backendName string) []byte {
	dst = append(dst, q...)
	dst = append(dst, '\x1f')
	dst = append(dst, d.Name()...)
	dst = append(dst, '\x1f')
	dst = append(dst, backendName...)
	if snippets {
		dst = append(dst, "\x1fsnippets"...)
	}
	if renderer != "" {
		dst = append(dst, "\x1frender:"...)
		dst = append(dst, renderer...)
	}
	return dst
}

// cacheLookup probes c for a query text and renderer, building the key in
// pooled scratch: no heap allocations.
func (s *System) cacheLookup(c *answerCache, q, renderer string, so SearchOptions) (*Analysis, []byte) {
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], q, renderer, s.searchDialect(so), so.Snippets, s.Backend.Name())
	a, data := c.lookup(sc.buf)
	keyScratchPool.Put(sc)
	return a, data
}

// cacheStore files an analysis (and its rendered bytes, if any) under a
// query text and renderer, in the cache of the ranking the analysis was
// computed under: if a write published a successor meanwhile, the entry
// lands where no later search looks. An analysis whose snippet step the
// request's context cut short is not stored, or later requests would be
// served the context's error.
func (s *System) cacheStore(q, renderer string, so SearchOptions, a *Analysis, data []byte) {
	for _, sol := range a.Solutions {
		if sol.snippetCut {
			return
		}
	}
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], q, renderer, s.searchDialect(so), so.Snippets, s.Backend.Name())
	a.ranking.cache.store(sc.buf, a, data)
	keyScratchPool.Put(sc)
}

// SearchRenderedContext is the serving-layer entry point and the one
// search path: probe the raw input's key for bytes rendered by the named
// renderer (hit=true, allocation-free — guarded by
// TestCachedRenderedZeroAllocs — and never touching ctx); otherwise search
// as SearchWithContext does (parse, canonical-key probe, five steps) under
// the ranking the raw probe read, render the analysis and store the bytes
// under the raw key and renderer (hit=false). Bytes are shared per
// renderer: each distinct render must pass its own name. The renderer ""
// keys exactly like the canonical probe, so an input already canonical
// keeps its analysis and bytes in one entry. The raw-key miss counts
// nothing, because the canonical-key probe behind it does the counting.
// The returned bytes are shared with the cache: callers must write them
// out unmodified.
func (s *System) SearchRenderedContext(ctx context.Context, input string, so SearchOptions, renderer string, render func(*Analysis) ([]byte, error)) (data []byte, hit bool, err error) {
	rk := s.ranking.Load()
	if rk.cache != nil {
		if _, data := s.cacheLookup(rk.cache, input, renderer, so); data != nil {
			s.metrics.cacheHits.Inc()
			return data, true, nil
		}
	}
	a, err := s.search(ctx, input, so, rk)
	if err != nil {
		return nil, false, err
	}
	data, err = render(a)
	if err != nil {
		return nil, false, err
	}
	if rk.cache != nil && len(data) > 0 {
		s.cacheStore(input, renderer, so, a, data)
	}
	return data, false, nil
}
