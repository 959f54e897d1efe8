package shard

import (
	"context"
	"sort"

	"vxml/internal/obs"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// The union view: a MemRepository presenting the whole federation as the
// single repository that loading every document into one store would
// have produced. The skeleton is the federation root with every shard
// root's child edges spliced in shard-major order (rebuilt through one
// Builder, so identical subtrees share and runs re-merge across shard
// boundaries); the data vectors are lazy concatenations of the shard
// vectors in the same order, reading shard pages only when scanned.
// Queries the shardability classifier rejects evaluate here with plain
// single-repository semantics — always correct, never scattered.

// buildUnionView merges the federation's shards into one MemRepository.
func buildUnionView(f *Federation) *vectorize.MemRepository {
	syms := xmlmodel.NewSymbols()
	b := skeleton.NewBuilder()
	var edges []skeleton.Edge
	sets := make([]vector.Set, len(f.Shards))
	for k, repo := range f.Shards {
		edges = skeleton.NewImporter(b, repo.Skel, repo.Syms, syms).AppendRootEdges(edges)
		sets[k] = repo.Vectors
	}
	skel := b.Finish(b.Make(syms.Intern(f.Catalog.RootTag), edges))
	return &vectorize.MemRepository{
		Syms:    syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, syms),
		Vectors: newConcatSet(sets),
	}
}

// concatSet presents per-shard vector sets as one set: each name's
// vector is the concatenation, in shard order, of that name's vector in
// every shard that has it (a class absent from a shard contributes
// nothing, matching its zero occurrences there).
type concatSet struct {
	parts []vector.Set
	names []string          // sorted union
	has   []map[string]bool // per part
}

func newConcatSet(parts []vector.Set) *concatSet {
	s := &concatSet{parts: parts, has: make([]map[string]bool, len(parts))}
	union := make(map[string]bool)
	for k, p := range parts {
		s.has[k] = make(map[string]bool)
		for _, name := range p.Names() {
			s.has[k][name] = true
			union[name] = true
		}
	}
	for name := range union {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s
}

func (s *concatSet) Names() []string { return s.names }

// Vector concatenates the shards' vectors for one class. A shard whose
// vector cannot be opened (quarantined page, corrupt catalog) fails the
// union read as a DegradedError naming that shard — the same typed
// failure the scatter path produces.
func (s *concatSet) Vector(name string) (vector.Vector, error) {
	parts := make([]vector.Vector, 0, len(s.parts))
	for k, p := range s.parts {
		if !s.has[k][name] {
			continue
		}
		v, err := p.Vector(name)
		if err != nil {
			return nil, &DegradedError{Shard: k, Err: err}
		}
		parts = append(parts, v)
	}
	return newConcatVector(parts), nil
}

// concatVector concatenates vectors positionally: part i's positions
// shift up by the combined length of parts 0..i-1.
type concatVector struct {
	parts []vector.Vector
	offs  []int64 // offs[i] = global position of part i's first value
	total int64
}

func newConcatVector(parts []vector.Vector) *concatVector {
	c := &concatVector{parts: parts, offs: make([]int64, len(parts))}
	for i, p := range parts {
		c.offs[i] = c.total
		c.total += p.Len()
	}
	return c
}

func (c *concatVector) Len() int64 { return c.total }

func (c *concatVector) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if n <= 0 {
		return nil
	}
	end := start + n
	for i, p := range c.parts {
		plo, phi := c.offs[i], c.offs[i]+p.Len()
		if phi <= start {
			continue
		}
		if plo >= end {
			break
		}
		lo := start
		if plo > lo {
			lo = plo
		}
		hi := end
		if phi < hi {
			hi = phi
		}
		off := c.offs[i]
		// One closure per shard part spanned, not per value scanned.
		if err := p.Scan(lo-off, hi-lo, func(pos int64, val []byte) error {
			return fn(off+pos, val)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Metered forwards per-query attribution to every disk-backed part.
func (c *concatVector) Metered(m *obs.TaskMeter) vector.Vector {
	parts := make([]vector.Vector, len(c.parts))
	for i, p := range c.parts {
		if mp, ok := p.(vector.Meterable); ok {
			parts[i] = mp.Metered(m)
		} else {
			parts[i] = p
		}
	}
	return &concatVector{parts: parts, offs: c.offs, total: c.total}
}

// WithContext forwards cancellation to every disk-backed part.
func (c *concatVector) WithContext(ctx context.Context) vector.Vector {
	parts := make([]vector.Vector, len(c.parts))
	for i, p := range c.parts {
		if cp, ok := p.(vector.Contextual); ok {
			parts[i] = cp.WithContext(ctx)
		} else {
			parts[i] = p
		}
	}
	return &concatVector{parts: parts, offs: c.offs, total: c.total}
}
