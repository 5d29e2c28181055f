package core

import (
	"container/list"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
)

// The answer cache makes the serving layer's hot path cheap: business
// users repeat the same keyword searches constantly (the paper's §1
// self-service scenario), and a repeated query should skip the five-step
// pipeline entirely. The cache is sharded to keep lock contention off the
// concurrent-search path and validated against the System's feedback
// epoch, so a like/dislike — which changes the ranking function — is
// observed by the very next search instead of being masked by a stale
// cached answer.
//
// One kind of entry, one lookup, one store. Every entry holds a pipeline
// analysis; an entry keyed by a raw request input additionally holds the
// answer bytes rendered from it, so the serving layer's repeated-query
// path is a byte-slice write with zero heap allocations (see rendered.go).
// Entries keyed by the canonical query form let whitespace variants share
// one pipeline run; when the raw input already is canonical, a single
// entry serves both purposes.

// defaultCacheSize is the total entry cap when Options.CacheSize is 0.
const defaultCacheSize = 512

var cacheSeed = maphash.MakeSeed()

// CacheStats reports answer-cache effectiveness (JSON-tagged: the
// daemon's /healthz embeds it).
type CacheStats struct {
	Hits   uint64 `json:"hits"`   // searches served from the cache
	Misses uint64 `json:"misses"` // searches that ran the pipeline
	// Entries counts the answers servable at the current ranking epoch.
	// Stale-epoch leftovers are swept out while counting — they can never
	// be served again, so reporting them would inflate the cache's
	// apparent capacity after every feedback call.
	Entries int `json:"entries"`
}

// answerCache is a sharded LRU of completed analyses and pre-rendered
// answer bytes. Entries remember the feedback epoch they were computed
// under; lookups never return an entry from another epoch.
type answerCache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *cacheEntry; front = most recently used
	byKey map[string]*list.Element
}

// cacheEntry holds what the cache knows about one key: the pipeline
// analysis and, once the key has been rendered, the answer bytes.
type cacheEntry struct {
	key      string
	epoch    uint64
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

// removeLocked drops one entry; the caller holds sh.mu.
func (sh *cacheShard) removeLocked(el *list.Element, e *cacheEntry) {
	sh.lru.Remove(el)
	delete(sh.byKey, e.key)
}

// evictLocked trims the shard back to its cap; the caller holds sh.mu.
func (sh *cacheShard) evictLocked() {
	for sh.lru.Len() > sh.cap {
		back := sh.lru.Back()
		sh.removeLocked(back, back.Value.(*cacheEntry))
	}
}

// lookup returns what the cache holds for key (built with appendCacheKey)
// under exactly the given epoch: the analysis, plus the answer bytes when
// the key has been rendered. A nil analysis means absent. An entry from an
// older epoch is evicted on sight — the ranking function changed, so the
// answer can never be valid again. The lookup is allocation-free: the key
// stays a byte slice end to end (maphash.Bytes plus the compiler's no-copy
// map lookup for byKey[string(key)]). It counts nothing: the search path
// (SearchWithContext, SearchRenderedContext) decides what is a hit.
func (c *answerCache) lookup(key []byte, epoch uint64) (*Analysis, []byte) {
	sh := c.shard(maphash.Bytes(cacheSeed, key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byKey[string(key)]
	if !ok {
		return nil, nil
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		sh.removeLocked(el, e)
		return nil, nil
	}
	sh.lru.MoveToFront(el)
	return e.a, e.rendered
}

// store records an analysis computed under the given epoch and, when data
// is non-nil, the answer bytes rendered from it, evicting the least
// recently used entry when the shard is full. Storing without bytes keeps
// the bytes already on the entry only if they were rendered under the
// same epoch.
func (c *answerCache) store(key []byte, epoch uint64, a *Analysis, data []byte) {
	sh := c.shard(maphash.Bytes(cacheSeed, key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byKey[string(key)]; ok {
		e := el.Value.(*cacheEntry)
		if data != nil || e.epoch != epoch {
			e.rendered = data
		}
		e.epoch, e.a = epoch, a
		sh.lru.MoveToFront(el)
		return
	}
	k := string(key)
	sh.byKey[k] = sh.lru.PushFront(&cacheEntry{key: k, epoch: epoch, a: a, rendered: data})
	sh.evictLocked()
}

// stats reports the counters and sweeps out entries from older epochs
// while counting, so Entries is the number of answers the cache can
// actually serve right now.
func (c *answerCache) stats(epoch uint64) CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.epoch != epoch {
				sh.removeLocked(el, e)
			}
			el = next
		}
		st.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return st
}

// CacheStats reports the answer cache's hit/miss counters and current
// servable size; the zero value when caching is disabled.
func (s *System) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.stats(s.ranking.Load().epoch)
}
