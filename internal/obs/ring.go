package obs

// ring is the bounded buffer behind SlowRing, TraceRing and PanicRing: it
// appends until it holds size items, then overwrites the oldest. It does
// no locking of its own; each owner guards its ring with its own mutex.
type ring[T any] struct {
	buf  []T
	next int // once full, the index of the oldest item
	size int
}

// newRing returns an empty ring holding up to size items (min 1).
func newRing[T any](size int) ring[T] {
	return ring[T]{size: max(size, 1)}
}

// push adds v, overwriting the oldest item once the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.size
}

// newestFirst returns a copy of the items, most recent first.
func (r *ring[T]) newestFirst() []T {
	out := make([]T, 0, len(r.buf))
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}
