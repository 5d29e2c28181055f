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
// query anyway). A repeated request is then a pooled-scratch key build,
// one shard lookup and a byte-slice write: zero heap allocations, no
// pipeline, no re-marshal. Both probes of the one search path — raw key
// here, canonical key in SearchWithContext — go through cacheLookup and
// cacheStore, so epoch validation is the same for bytes and analyses.

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
// input or canonical form) plus every per-request knob that changes the
// answer's content — including the backend identity, because cached
// snippet rows were produced by one backend's execution and must never be
// served for another (two systems pointed at different warehouses can
// legitimately return different rows for the same statement).
func appendCacheKey(dst []byte, q string, d *sqlast.Dialect, snippets bool, backendName string) []byte {
	dst = append(dst, q...)
	dst = append(dst, '\x1f')
	dst = append(dst, d.Name()...)
	dst = append(dst, '\x1f')
	dst = append(dst, backendName...)
	if snippets {
		dst = append(dst, "\x1fsnippets"...)
	}
	return dst
}

// cacheLookup probes the answer cache for a query text at the given
// epoch, building the key in pooled scratch: no heap allocations.
func (s *System) cacheLookup(q string, so SearchOptions, epoch uint64) (*Analysis, []byte) {
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], q, s.searchDialect(so), so.Snippets, s.Backend.Name())
	a, data := s.cache.lookup(sc.buf, epoch)
	keyScratchPool.Put(sc)
	return a, data
}

// cacheStore files an analysis (and its rendered bytes, if any) under a
// query text. The entry is stored under the analysis's epoch — the one
// observed before the pipeline ran: if feedback raced in meanwhile the
// entry is already stale and will never be served. An analysis whose
// snippet step the request's context cut short is not stored, or later
// requests would be served the context's error.
func (s *System) cacheStore(q string, so SearchOptions, a *Analysis, data []byte) {
	for _, sol := range a.Solutions {
		if sol.snippetCut {
			return
		}
	}
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], q, s.searchDialect(so), so.Snippets, s.Backend.Name())
	s.cache.store(sc.buf, a.Epoch, a, data)
	keyScratchPool.Put(sc)
}

// SearchRenderedContext is the serving-layer entry point and the one
// search path: probe the raw input's key for rendered bytes (hit=true,
// allocation-free — guarded by TestCachedRenderedZeroAllocs — and never
// touching ctx); otherwise search as SearchWithContext does (parse,
// canonical-key probe, five steps) under the ranking the raw probe read,
// render the analysis and store the bytes under the raw key (hit=false).
// The raw-key miss counts nothing, because the canonical-key probe behind
// it does the counting. The returned bytes are shared with the cache:
// callers must write them out unmodified.
func (s *System) SearchRenderedContext(ctx context.Context, input string, so SearchOptions, render func(*Analysis) ([]byte, error)) (data []byte, hit bool, err error) {
	rk := s.ranking.Load()
	if s.cache != nil {
		if _, data := s.cacheLookup(input, so, rk.epoch); data != nil {
			s.cache.hits.Add(1)
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
	if s.cache != nil && len(data) > 0 {
		s.cacheStore(input, so, a, data)
	}
	return data, false, nil
}
