package core

import (
	"sync"
	"sync/atomic"
)

// lru is the bounded cache behind the serving layer's plan and result
// caches: an LRU approximation with CLOCK (second-chance) eviction whose
// hit path is lock-free. A cache hit is the hot serving operation — under
// a skewed query mix nearly every request is one — so hits must scale
// with client goroutines: get is a sync.Map load plus (at most) one
// reference-bit store, with no shared mutex. The mutex guards only the
// insert/evict path, which runs once per distinct (query, epoch), not
// once per request.
//
// Both caches are bounded by entry count, not by bytes. Plans are a few
// kilobytes each, but a result is a whole answer (its vectorized form
// plus one serialized form) and answers range from a few hundred bytes
// to tens of megabytes (the paper's TQ2 at full scale holds 44.9 MB as
// (S', V') and 10.6 MB as XML). So the result cache's memory is entries
// × the largest answers it holds, and a count bound alone does not cap
// it.
type lru[K comparable, V any] struct {
	cap   int
	items sync.Map // K -> *lruEntry[K, V]

	mu   sync.Mutex
	ring []*lruEntry[K, V] // guarded by mu; insertion order, wrapped by hand
	hand int               // guarded by mu; next CLOCK sweep position
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
	ref atomic.Bool // second-chance bit; set on hit, cleared by the sweep
}

// newLRU returns a cache bounded to capacity entries (min 1).
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity}
}

// get returns the cached value and marks its recency. Lock-free; the
// reference bit is only written when unset, so a hot entry's hits are
// pure reads of a shared cache line.
func (c *lru[K, V]) get(k K) (V, bool) {
	e, ok := c.items.Load(k)
	if !ok {
		var zero V
		return zero, false
	}
	ent := e.(*lruEntry[K, V])
	if !ent.ref.Load() {
		ent.ref.Store(true)
	}
	return ent.val, true
}

// put inserts or replaces k, evicting past capacity by CLOCK sweep:
// entries with their reference bit set get a second chance (bit cleared,
// hand advances); unreferenced entries are evicted. A replaced key's old
// ring slot becomes stale and is reclaimed when the hand reaches it.
func (c *lru[K, V]) put(k K, v V) {
	ent := &lruEntry[K, V]{key: k, val: v}
	ent.ref.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.Store(k, ent)
	c.ring = append(c.ring, ent)
	steps := 0
	for len(c.ring) > c.cap {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if cur, ok := c.items.Load(e.key); !ok || cur.(*lruEntry[K, V]) != e {
			// A stale slot: its key was re-put since. The live entry has
			// its own slot, so just reclaim this one.
			c.removeAt(c.hand)
			continue
		}
		// Give each entry at most one second chance per sweep; after a
		// full lap of clears the next pass must evict, even if concurrent
		// hits keep re-setting bits.
		if steps < 2*len(c.ring) && e.ref.Load() {
			e.ref.Store(false)
			c.hand++
			steps++
			continue
		}
		c.items.Delete(e.key)
		c.removeAt(c.hand)
	}
}

// removeAt drops ring slot i, keeping the hand on the element that
// followed it; mu must be held.
//
//vx:locked mu
func (c *lru[K, V]) removeAt(i int) {
	c.ring = append(c.ring[:i], c.ring[i+1:]...)
	if c.hand > i {
		c.hand--
	}
}

// len returns the current live entry count.
func (c *lru[K, V]) len() int {
	n := 0
	c.items.Range(func(any, any) bool { n++; return true })
	return n
}
