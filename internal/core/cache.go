package core

import (
	"container/list"
	"hash/maphash"
	"runtime"
	"sync"
)

// The answer cache makes the serving layer's hot path cheap: business
// users repeat the same keyword searches constantly (the paper's §1
// self-service scenario), and a repeated query should skip the five-step
// pipeline entirely. The cache is sharded to keep lock contention off the
// concurrent-search path. Each published ranking (feedback.go) owns one,
// and a search probes and stores only in the cache of the ranking it
// loaded: a like/dislike, which publishes a successor with an empty cache,
// is observed by the very next search instead of being masked by a cached
// answer, and an answer computed while a write landed is filed where no
// later search looks.
//
// One lookup, one store, one value per entry. An entry is keyed by the
// raw request input and the entry's form: the pipeline analysis
// (SearchWithContext), or the answer bytes one renderer made from it
// (SearchRenderedContext), so the serving layer's repeated-query path is a
// byte-slice write with zero heap allocations (see rendered.go). A
// rendered entry holds only its bytes: the analysis they came from is
// garbage once rendered.

// defaultCacheSize is the total entry cap when Options.CacheSize is 0.
const defaultCacheSize = 512

var cacheSeed = maphash.MakeSeed()

// CacheStats reports answer-cache effectiveness (JSON-tagged: the
// daemon's /healthz embeds it).
type CacheStats struct {
	Hits   uint64 `json:"hits"`   // searches served from the cache
	Misses uint64 `json:"misses"` // searches that ran the pipeline
	// Entries counts the answers in the current ranking's cache, the only
	// ones a search can be served.
	Entries int `json:"entries"`
}

// answerCache is a sharded LRU of completed analyses and rendered answer
// bytes, all computed under the ranking that owns it.
type answerCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *cacheEntry; front = most recently used
	byKey map[string]*list.Element
}

// cacheEntry holds one key's value: the analysis or the rendered bytes,
// whichever the key's form names; the other is nil.
type cacheEntry struct {
	key      string
	a        *Analysis
	rendered []byte
}

// cacheShardCount picks the shard count: the next power of two at or
// above GOMAXPROCS, so searches running on every P rarely contend on the
// same shard lock and shard picking stays a mask.
func cacheShardCount() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

// newAnswerCache builds a cache holding up to total entries across all
// shards: the cap is distributed exactly (remainder entries go to the
// first shards), so CacheSize is an honest upper bound even when it is
// smaller than the shard count.
func newAnswerCache(total int) *answerCache {
	count := cacheShardCount()
	c := &answerCache{shards: make([]cacheShard, count), mask: uint64(count - 1)}
	base := total / count
	extra := total % count
	for i := range c.shards {
		c.shards[i].cap = base
		if i < extra {
			c.shards[i].cap++
		}
		c.shards[i].lru = list.New()
		c.shards[i].byKey = make(map[string]*list.Element)
	}
	return c
}

func (c *answerCache) shard(h uint64) *cacheShard {
	return &c.shards[h&c.mask]
}

// evictLocked trims the shard back to its cap; the caller holds sh.mu.
func (sh *cacheShard) evictLocked() {
	for sh.lru.Len() > sh.cap {
		delete(sh.byKey, sh.lru.Remove(sh.lru.Back()).(*cacheEntry).key)
	}
}

// lookup returns the value the cache holds for key (built with
// appendCacheKey): the analysis or the rendered bytes, both nil when the
// key is absent. The lookup is allocation-free: the key stays a byte slice
// end to end (maphash.Bytes plus the compiler's no-copy map lookup for
// byKey[string(key)]).
func (c *answerCache) lookup(key []byte) (*Analysis, []byte) {
	sh := c.shard(maphash.Bytes(cacheSeed, key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byKey[string(key)]
	if !ok {
		return nil, nil
	}
	sh.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.a, e.rendered
}

// store files key's value, an analysis or rendered bytes, evicting the
// least recently used entry when the shard is full. An entry is written
// once: when concurrent misses of one key both store, the first stays.
func (c *answerCache) store(key []byte, a *Analysis, data []byte) {
	sh := c.shard(maphash.Bytes(cacheSeed, key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byKey[string(key)]; ok {
		return
	}
	k := string(key)
	sh.byKey[k] = sh.lru.PushFront(&cacheEntry{key: k, a: a, rendered: data})
	sh.evictLocked()
}

// len counts the entries across all shards.
func (c *answerCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// CacheStats reports the answer cache's hit/miss counters and the current
// ranking's cache size; the zero value when caching is disabled.
func (s *System) CacheStats() CacheStats {
	c := s.ranking.Load().cache
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: s.metrics.cacheHits.Value(), Misses: s.metrics.cacheMisses.Value(), Entries: c.len()}
}
