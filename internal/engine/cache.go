package engine

import (
	"container/list"
	"sync"

	"snap1/internal/machine"
)

// lruCache is a mutex-guarded LRU used for both engine caches: compiled
// programs keyed by source content hash, and query results keyed by
// (program hash, KB generation). Cached values are shared by every
// query that hits them; both value types are immutable once published,
// so sharing is safe.
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List          // front = most recently used
	byKey map[K]*list.Element // value: *cacheEntry[K, V]
}

type cacheEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRUCache[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[K]*list.Element, capacity),
	}
}

func (c *lruCache[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[K, V]).val, true
}

func (c *lruCache[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry[K, V]).val = val
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry[K, V]).key)
	}
}

// sweep removes every entry whose key the predicate selects, returning
// the number removed.
func (c *lruCache[K, V]) sweep(drop func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*cacheEntry[K, V]).key; drop(key) {
			c.order.Remove(el)
			delete(c.byKey, key)
			n++
		}
		el = next
	}
	return n
}

// len reports the resident entry count (test support).
func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// resultKey identifies a memoized query result: the program's content
// hash plus the knowledge base's structural generation at execution
// time. Every accepted query is a pure function of (program, topology) —
// markers are cleared before each run and mutating programs are refused —
// so on the lockstep machine a memoized Result, collections and virtual
// time both, is bit-identical to recomputation. A KB mutation bumps the
// generation, so stale results can never satisfy a post-mutation query:
// they simply stop being looked up.
type resultKey struct {
	hash uint64
	gen  uint64
}

// evictBefore sweeps out every result memoized under a generation older
// than gen and returns the number removed. A write publish calls it so
// superseded-generation results — which can never be looked up again —
// free their memory immediately instead of lingering until LRU pressure
// pushes them out.
func evictBefore(c *lruCache[resultKey, *machine.Result], gen uint64) int {
	return c.sweep(func(k resultKey) bool { return k.gen < gen })
}
