package core

import (
	"context"
	"errors"
	"sync"

	"soda/internal/sqlast"
)

// The rendered fast path: the serving layer caches the exact bytes it
// rendered for an answer, keyed by the raw request input (the response
// echoes it, and parsing it to a canonical form would allocate) and by
// the renderer's name, so two renderings of one answer never serve each
// other's bytes. A repeated request is then a pooled-scratch key build,
// one shard lookup and a byte-slice write: zero heap allocations, no
// pipeline, no re-marshal. Every probe and store goes through cacheLookup
// and cacheStore into the cache of the ranking the search loaded, so
// bytes and analyses go stale together.

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

// analysisForm is the renderer name of an entry holding the analysis
// itself; every renderer has a non-empty name.
const analysisForm = ""

// appendCacheKey appends the answer-cache key to dst: the raw input, the
// entry's form (the renderer's name, or analysisForm), plus every
// per-request knob that changes the answer's content — including the
// backend identity, because cached snippet rows were produced by one
// backend's execution and must never be served for another (two systems
// pointed at different warehouses can legitimately return different rows
// for the same statement).
func appendCacheKey(dst []byte, input, renderer string, d *sqlast.Dialect, snippets bool, backendName string) []byte {
	dst = append(dst, input...)
	dst = append(dst, '\x1f')
	dst = append(dst, d.Name()...)
	dst = append(dst, '\x1f')
	dst = append(dst, backendName...)
	if snippets {
		dst = append(dst, "\x1fsnippets"...)
	}
	if renderer != analysisForm {
		dst = append(dst, "\x1frender:"...)
		dst = append(dst, renderer...)
	}
	return dst
}

// cacheLookup probes rk's cache for input's entry in the renderer's form,
// counting the hit or miss, and returns its value. The key is built in
// pooled scratch: no heap allocations.
func (s *System) cacheLookup(rk *ranking, input, renderer string, so SearchOptions) (*Analysis, []byte) {
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], input, renderer, s.searchDialect(so), so.Snippets, s.Backend.Name())
	a, data := rk.cache.lookup(sc.buf)
	keyScratchPool.Put(sc)
	if a != nil || data != nil {
		s.metrics.cacheHits.Inc()
	} else {
		s.metrics.cacheMisses.Inc()
	}
	return a, data
}

// cacheStore files input's entry in the renderer's form: the bytes data
// rendered from a, or a itself for analysisForm. It lands in the cache of
// the ranking a was computed under: if a write published a successor
// meanwhile, the entry lands where no later search looks. An analysis
// whose snippet step the request's context cut short is not stored, nor
// are its bytes, or later requests would be served the context's error.
func (s *System) cacheStore(input, renderer string, so SearchOptions, a *Analysis, data []byte) {
	for _, sol := range a.Solutions {
		if sol.snippetCut {
			return
		}
	}
	value := a
	if renderer != analysisForm {
		value = nil
	}
	sc := keyScratchPool.Get().(*keyScratch)
	sc.buf = appendCacheKey(sc.buf[:0], input, renderer, s.searchDialect(so), so.Snippets, s.Backend.Name())
	a.ranking.cache.store(sc.buf, value, data)
	keyScratchPool.Put(sc)
}

// SearchRenderedContext is the serving layer's search path: probe the raw
// input's key for bytes rendered by the named renderer (hit=true,
// allocation-free — guarded by TestCachedRenderedZeroAllocs — and never
// touching ctx); otherwise run the pipeline under the ranking the probe
// read, render the analysis and store only the bytes (hit=false). Bytes
// are shared per renderer: each distinct render must pass its own
// non-empty name. The returned bytes are shared with the cache: callers
// must write them out unmodified.
func (s *System) SearchRenderedContext(ctx context.Context, input string, so SearchOptions, renderer string, render func(*Analysis) ([]byte, error)) (data []byte, hit bool, err error) {
	if renderer == analysisForm {
		return nil, false, errors.New("core: SearchRenderedContext needs a renderer name")
	}
	rk := s.ranking.Load()
	if rk.cache != nil {
		if _, data := s.cacheLookup(rk, input, renderer, so); data != nil {
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
