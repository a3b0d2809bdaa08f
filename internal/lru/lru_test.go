package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if _, ok := c.Get(1); !ok { // 1 becomes MRU, 2 is now LRU
		t.Fatal("missing 1")
	}
	c.Put(3, "c") // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("missing %d", k)
		}
	}
	if len(c.m) != 2 {
		t.Fatalf("entries = %d, want 2", len(c.m))
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("k", 1)
	c.Put("k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if len(c.m) != 1 {
		t.Fatalf("entries = %d, want 1 (update must not duplicate)", len(c.m))
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New[int, int](4)
	calls := 0
	v, hit := c.GetOrCompute(7, func() int { calls++; return 49 })
	if hit || v != 49 || calls != 1 {
		t.Fatalf("first lookup: v=%d hit=%v calls=%d", v, hit, calls)
	}
	v, hit = c.GetOrCompute(7, func() int { calls++; return 0 })
	if !hit || v != 49 || calls != 1 {
		t.Fatalf("second lookup: v=%d hit=%v calls=%d", v, hit, calls)
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 8; i++ {
		c.Put(i, i)
	}
	c.Purge()
	if len(c.m) != 0 {
		t.Fatalf("entries = %d after Purge", len(c.m))
	}
	// The list must be reusable after a purge.
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("cache unusable after Purge")
	}
}

func TestNilCacheInert(t *testing.T) {
	var c *Cache[int, int]
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, 1) // must not panic
	c.Purge()
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache not inert")
	}
	if v, hit := c.GetOrCompute(1, func() int { return 9 }); hit || v != 9 {
		t.Fatalf("nil GetOrCompute: v=%d hit=%v", v, hit)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	if c.capacity != 1 || len(c.m) != 1 {
		t.Fatalf("cap=%d len=%d, want 1/1", c.capacity, len(c.m))
	}
}

// TestConcurrentMixedOps drives every operation from many goroutines; run
// under -race this pins the locking. Invariant checked after: the entry
// count never exceeds capacity.
func TestConcurrentMixedOps(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*31 + i) % 200
				switch i % 4 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.GetOrCompute(k, func() int { return i })
				case 3:
					if i%97 == 0 {
						c.Purge()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.m) > c.capacity {
		t.Fatalf("entries %d exceed capacity %d", len(c.m), c.capacity)
	}
}

// TestEvictionIsLRUExact drives a known access pattern and checks the exact
// surviving set.
func TestEvictionIsLRUExact(t *testing.T) {
	c := New[int, int](3)
	for i := 1; i <= 3; i++ {
		c.Put(i, i)
	}
	c.Get(1)    // order (MRU→LRU): 1 3 2
	c.Put(4, 4) // evicts 2 → 4 1 3
	c.Get(3)    // → 3 4 1
	c.Put(5, 5) // evicts 1 → 5 3 4
	want := map[int]bool{3: true, 4: true, 5: true}
	for k := 1; k <= 5; k++ {
		_, ok := c.Get(k)
		if ok != want[k] {
			t.Fatalf("key %d: present=%v want %v", k, ok, want[k])
		}
	}
}

func TestNegativeCapacityFloor(t *testing.T) {
	c := New[int, int](-5)
	if c.capacity != 1 {
		t.Fatalf("cap=%d, want 1", c.capacity)
	}
	c.Put(1, 1)
	c.Put(2, 2) // evicts 1: the floor still bounds the cache
	if _, ok := c.Get(1); ok {
		t.Fatal("1 should have been evicted at capacity 1")
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Fatal("missing 2")
	}
	if len(c.m) != 1 {
		t.Fatalf("entries = %d, want 1", len(c.m))
	}
}

// checkListIntegrity walks the recency list both ways and cross-checks it
// against the map: every list node is a map entry and vice versa, and the
// prev/next pointers agree. Internal-package test only — this is the
// invariant concurrent eviction must preserve.
func checkListIntegrity[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.head.next; e != &c.tail; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			t.Fatalf("broken links at entry %v", e.key)
		}
		if c.m[e.key] != e {
			t.Fatalf("list entry %v not in map (or superseded)", e.key)
		}
		n++
		if n > len(c.m)+1 {
			t.Fatalf("list longer than map (%d entries): cycle or leak", len(c.m))
		}
	}
	if n != len(c.m) {
		t.Fatalf("list has %d entries, map has %d", n, len(c.m))
	}
}

// TestConcurrentEvictionBound hammers a tiny cache with far more distinct
// keys than capacity from many goroutines, so nearly every Put evicts. Run
// under -race this pins the eviction path's locking; afterwards the map and
// recency list must still agree exactly.
func TestConcurrentEvictionBound(t *testing.T) {
	const cap = 8
	c := New[int, int](cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := w*2000 + i // every goroutine writes distinct keys
				c.Put(k, i)
				c.Get(w*2000 + i/2)
				c.GetOrCompute(k%16, func() int { return i })
			}
		}(w)
	}
	wg.Wait()
	if got := len(c.m); got > cap {
		t.Fatalf("entries %d exceed Cap %d after concurrent eviction", got, cap)
	}
	checkListIntegrity(t, c)
	// The cache must remain fully usable: fill it and verify exact retention.
	c.Purge()
	for i := 0; i < cap; i++ {
		c.Put(i, i)
	}
	for i := 0; i < cap; i++ {
		if v, ok := c.Get(i); !ok || v != i {
			t.Fatalf("key %d lost after stress (v=%d ok=%v)", i, v, ok)
		}
	}
	checkListIntegrity(t, c)
}

func BenchmarkGetHit(b *testing.B) {
	c := New[string, int](1024)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
}
