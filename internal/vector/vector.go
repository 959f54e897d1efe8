// Package vector implements data vectors — the V of the paper's vectorized
// representation VEC(T) = (S, V). A vector is the document-order sequence
// of text values appearing under one root-to-leaf tag path ("/bib/book/title").
//
// A DiskSet stores its vectors as extents of one segment of pages behind
// one directory (segment.go, directory.go): a vector's full pages are its
// own, and vectors of a few values share pages. Extents are uncompressed
// by default (the paper departs from XMILL here) or, opt-in,
// DEFLATE-compressed (the §6 extension); one reader, Paged, reads both.
// Vectors are read lazily: a query touches only the extents its operations
// scan, which is the system's central I/O win. Position i of a vector is
// exactly occurrence i of the corresponding text class (see
// internal/skeleton), so all engine operations are simple positional
// scans. Those scans arrive row by row in document order, so the engine
// reads through a Cursor, which resumes each scan where the previous one
// stopped instead of searching for and re-decoding its extent.
package vector

import (
	"context"
	"fmt"
	"sort"

	"vxml/internal/obs"
)

// Vector is a read-only sequence of values addressed by position.
type Vector interface {
	// Len returns the number of values.
	Len() int64
	// Scan calls fn for positions [start, start+n) in order. The val slice
	// is only valid during the call; fn must copy it to retain it.
	Scan(start, n int64, fn func(pos int64, val []byte) error) error
}

// Meterable is implemented by disk-backed vectors that can charge their
// page faults to a per-query obs.TaskMeter. Metered returns a view of
// the same vector attributing I/O to m — a cheap shallow copy, so the
// shared reader stays meter-free while each evaluation holds its own
// attributed view. Implementations accept a nil meter (the view then
// behaves exactly like the receiver).
type Meterable interface {
	Metered(m *obs.TaskMeter) Vector
}

// Contextual is implemented by disk-backed vectors whose page reads can
// honor a context: WithContext returns a view (a shallow copy, like
// Metered) whose transient-read retry backoff aborts when ctx is
// cancelled. A nil ctx view behaves exactly like the receiver.
type Contextual interface {
	WithContext(ctx context.Context) Vector
}

// Get is a convenience positional read returning a copy of one value.
func Get(v Vector, pos int64) (string, error) {
	var out string
	err := v.Scan(pos, 1, func(_ int64, val []byte) error {
		out = string(val)
		return nil
	})
	return out, err
}

// All materializes a whole vector as strings (tests and small results).
func All(v Vector) ([]string, error) {
	out := make([]string, 0, v.Len())
	err := v.Scan(0, v.Len(), func(_ int64, val []byte) error {
		out = append(out, string(val))
		return nil
	})
	return out, err
}

// Mem is an in-memory vector, used for freshly built query results and in
// tests. The zero value is an empty vector ready to append to.
type Mem struct {
	Values []string
}

// Append adds a value at the end.
func (m *Mem) Append(val string) { m.Values = append(m.Values, val) }

// Len implements Vector.
func (m *Mem) Len() int64 { return int64(len(m.Values)) }

// Scan implements Vector.
func (m *Mem) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if start < 0 || start+n > int64(len(m.Values)) {
		return fmt.Errorf("vector: scan [%d,%d) out of range 0..%d", start, start+n, len(m.Values))
	}
	for i := start; i < start+n; i++ {
		if err := fn(i, []byte(m.Values[i])); err != nil {
			return err
		}
	}
	return nil
}

// Set is a collection of named vectors — the V half of VEC(T).
type Set interface {
	// Names returns all vector names, sorted.
	Names() []string
	// Vector opens the named vector. Implementations open lazily.
	Vector(name string) (Vector, error)
}

// CtxSet is an optional Set extension for request-attributed opens, for
// sets whose open itself may do I/O: VectorCtx charges those reads to m
// and puts their transient-read retries on ctx's span. Sets that wrap
// other sets forward the attribution to their base.
type CtxSet interface {
	VectorCtx(ctx context.Context, m *obs.TaskMeter, name string) (Vector, error)
}

// OpenFrom resolves a set through CtxSet when the set supports it, so
// callers holding a request context and meter (the engine's vectorFor,
// wrapping sets forwarding to their base) get attributed opens from any
// Set without type-switching themselves.
func OpenFrom(ctx context.Context, m *obs.TaskMeter, s Set, name string) (Vector, error) {
	if cs, ok := s.(CtxSet); ok {
		return cs.VectorCtx(ctx, m, name)
	}
	return s.Vector(name)
}

// MemSet is an in-memory Set. The zero value is empty and ready to use
// after NewMemSet.
type MemSet struct {
	vecs map[string]*Mem
}

// NewMemSet returns an empty in-memory vector set.
func NewMemSet() *MemSet { return &MemSet{vecs: make(map[string]*Mem)} }

// Add registers (or returns the existing) vector with the given name.
func (s *MemSet) Add(name string) *Mem {
	if v, ok := s.vecs[name]; ok {
		return v
	}
	v := &Mem{}
	s.vecs[name] = v
	return v
}

// Names implements Set.
func (s *MemSet) Names() []string {
	out := make([]string, 0, len(s.vecs))
	for n := range s.vecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Vector implements Set.
func (s *MemSet) Vector(name string) (Vector, error) {
	v, ok := s.vecs[name]
	if !ok {
		return nil, fmt.Errorf("vector: no vector %q", name)
	}
	return v, nil
}

// TotalValues returns the number of values across all vectors of a set.
func TotalValues(s Set) (int64, error) {
	var total int64
	for _, name := range s.Names() {
		v, err := s.Vector(name)
		if err != nil {
			return 0, err
		}
		total += v.Len()
	}
	return total, nil
}

// TotalBytes returns the summed byte length of all values of a set (the
// paper's "Vectors' Size" column, measured on the raw values).
func TotalBytes(s Set) (int64, error) {
	var total int64
	for _, name := range s.Names() {
		v, err := s.Vector(name)
		if err != nil {
			return 0, err
		}
		err = v.Scan(0, v.Len(), func(_ int64, val []byte) error {
			total += int64(len(val))
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
