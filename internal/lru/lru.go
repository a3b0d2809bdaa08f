// Package lru provides the bounded least-recently-used cache shared by the
// caching layers of the repository: the planner's stage-encoding cache and
// the serving daemon's (graph, model) → latency memo both ride on it, so a
// single well-tested eviction policy bounds memory everywhere instead of
// per-package unbounded maps.
//
// The cache is a plain generic map plus an intrusive doubly-linked recency
// list; every operation is O(1). It is safe for concurrent use. Hit/miss
// accounting is left to callers (Get's second result), keeping the package
// free of observability dependencies.
package lru

import "sync"

// Cache is a bounded LRU map from K to V. The zero value is not usable; use
// New. A nil *Cache is inert: Get always misses and Put is a no-op, so an
// optional cache can be threaded without nil checks.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*entry[K, V]
	// head.next is the most recently used entry, tail.prev the least;
	// head/tail are sentinels so list surgery never branches on nil.
	head, tail entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns a cache holding at most capacity entries (capacity < 1 is
// treated as 1 — a bound of zero would make every Put a silent no-op, which
// no caller wants).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[K, V]{capacity: capacity, m: make(map[K]*entry[K, V])}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

// Get returns the value cached under key and marks it most recently used.
// The second result is false on a miss (and always on a nil cache).
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put stores val under key, marking it most recently used; when the cache is
// full the least recently used entry is evicted. No-op on a nil cache.
func (c *Cache[K, V]) Put(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.val = val
		c.moveToFront(e)
		return
	}
	if len(c.m) >= c.capacity {
		lru := c.tail.prev
		c.unlink(lru)
		delete(c.m, lru.key)
	}
	e := &entry[K, V]{key: key, val: val}
	c.m[key] = e
	c.pushFront(e)
}

// GetOrCompute returns the cached value for key, computing and caching it on
// a miss. compute runs outside the cache lock, so concurrent misses on the
// same key may compute more than once (last write wins) — acceptable for the
// idempotent, deterministic computations this cache memoizes. The second
// result reports whether the value was already cached.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() V) (V, bool) {
	if v, ok := c.Get(key); ok {
		return v, true
	}
	v := compute()
	c.Put(key, v)
	return v, false
}

// Purge drops every entry, e.g. when the values' producer was reloaded and
// cached results may be stale. No-op on nil.
func (c *Cache[K, V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.head.next = &c.tail
	c.tail.prev = &c.head
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.head
	e.next = c.head.next
	e.prev.next = e
	e.next.prev = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	c.unlink(e)
	c.pushFront(e)
}
