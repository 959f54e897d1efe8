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

// Scan implements Vector. Each value is copied into one scratch buffer
// reused across the scan, so a scan allocates only as the buffer grows to
// its longest value.
func (m *Mem) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if start < 0 || start+n > int64(len(m.Values)) {
		return fmt.Errorf("vector: scan [%d,%d) out of range 0..%d", start, start+n, len(m.Values))
	}
	var buf []byte
	for i := start; i < start+n; i++ {
		buf = append(buf[:0], m.Values[i]...)
		if err := fn(i, buf); err != nil {
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

// OpenFrom opens the named vector of s. No set does I/O when it opens a
// vector (a disk vector's extents come from the directory loaded with
// the repository), so the context and meter go unused: a query's reads
// are charged through Meterable and Contextual once the vector is open.
// It stays for callers written against the attributed open.
func OpenFrom(_ context.Context, _ *obs.TaskMeter, s Set, name string) (Vector, error) {
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
