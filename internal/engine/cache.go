package engine

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/rules"
)

// lruCache is a mutex-guarded LRU used for both engine caches: compiled
// programs keyed by source content hash, and query answers keyed by
// (program hash, KB generation). Both keys are 64-bit hashes, so a value
// carries what it was made from and a hit checks it (compiled.src,
// answer.prog). Cached values are shared by every query that hits them;
// both value types are immutable once published, so sharing is safe.
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

// compiled is a compile-cache entry: the sealed program and the source it
// was assembled from, which a hit compares with the source it was asked
// for.
type compiled struct {
	src  string
	prog *isa.Program
}

// resultKey identifies a memoized query answer: the program's content
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

// answer is a result-cache entry: the program it answers (a hit must be
// the same program, not only the same hash), its Result, and the answer's
// encoded bytes. The bytes are filled by the entry's first hit, not by the
// miss that made it (a query asked once never pays for them), and they go
// when the entry does.
type answer struct {
	prog *isa.Program
	res  *machine.Result
	wire atomic.Pointer[wireAnswer]
}

// wireAnswer is an answer's QueryResponse encoding without its wall_us
// value, which belongs at b[split].
type wireAnswer struct {
	b     []byte
	split int
}

// evictBefore sweeps out every answer memoized under a generation older
// than gen and returns the number removed. A write publish calls it so
// superseded-generation answers — which can never be looked up again —
// free their memory immediately instead of lingering until LRU pressure
// pushes them out.
func evictBefore(c *lruCache[resultKey, *answer], gen uint64) int {
	return c.sweep(func(k resultKey) bool { return k.gen < gen })
}

// sameProgram reports whether a and b run identically: the same program,
// or equal instruction streams whose PROPAGATE rules have equal specs.
// Program.Hash is 64 bits; a cache entry found by it is checked with this
// before it is used.
func sameProgram(a, b *isa.Program) bool {
	if a == b {
		return true
	}
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		x, y := a.Instrs[i], b.Instrs[i]
		if math.Float32bits(x.Weight) != math.Float32bits(y.Weight) || math.Float32bits(x.Value) != math.Float32bits(y.Value) {
			return false
		}
		x.Weight, x.Value, y.Weight, y.Value = 0, 0, 0, 0
		if x != y {
			return false
		}
		if x.Op == isa.OpPropagate {
			rx, ry := ruleOf(a, x.Rule), ruleOf(b, y.Rule)
			if rx != ry && (rx == nil || ry == nil || rx.Spec() != ry.Spec()) {
				return false
			}
		}
	}
	return true
}

// ruleOf is the compiled rule a PROPAGATE of p names, or nil.
func ruleOf(p *isa.Program, tok rules.Token) *rules.Compiled {
	if p.Rules == nil {
		return nil
	}
	return p.Rules.Rule(tok)
}
