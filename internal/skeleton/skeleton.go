// Package skeleton implements the compressed skeleton of §2.2 of the paper:
// the tree structure of an XML document with text replaced by '#' markers,
// compressed into a DAG by hash-consing (sharing identical subtrees) and by
// run-length encoding consecutive identical child edges.
//
// It also provides the positional machinery the query engine builds on:
// path classes (root-to-node tag paths, which name the data vectors) and
// run mappings between the document-order occurrence numbering of a class
// and that of a child class. Run mappings are computed by memoized
// traversal of the DAG, so their cost is proportional to the size of the
// compressed skeleton, not the document — the source of the exponential
// savings of Prop. 3.2.
package skeleton

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"vxml/internal/xmlmodel"
)

// NodeID identifies a unique DAG node within one Skeleton: a node is its
// ID. IDs are in creation order, which is bottom-up — every child has a
// smaller ID than its parents. Two identical subtrees of the document are
// one node.
type NodeID int32

// Edge is a run-length-encoded child edge: Count consecutive occurrences
// of Child among the parent's ordered children.
type Edge struct {
	Child NodeID
	Count int64
}

// Skeleton is a compressed skeleton: a DAG rooted at Root, held as
// parallel arrays indexed by NodeID and one shared edge array. It holds
// no pointer per node, so the garbage collector sees a handful of arrays
// however large the DAG. A finished or decoded Skeleton is immutable.
type Skeleton struct {
	Root  NodeID
	tags  []xmlmodel.Sym // by NodeID; TextStep for a text marker ('#')
	first []int32        // node n's edges are edges[first[n]:first[n+1]]
	edges []Edge
	size  []int64 // by NodeID: expanded subtree size, saturating at MaxInt64
}

// add appends a node with tag whose edges are the ones appended to
// s.edges since the previous node, and returns its ID.
func (s *Skeleton) add(tag xmlmodel.Sym) NodeID {
	s.tags = append(grow(s.tags, 1), tag)
	s.first = append(grow(s.first, 1), int32(len(s.edges)))
	return NodeID(len(s.tags) - 1)
}

// addSizes computes the expanded size of every node added since the
// last call. Children precede their parents, so one forward sweep does.
// It returns the first node whose size exceeds 2^63-1, or -1; such a
// size saturates at MaxInt64.
func (s *Skeleton) addSizes() NodeID {
	over := NodeID(-1)
	s.size = slices.Grow(s.size, len(s.tags)-len(s.size))
	for n := NodeID(len(s.size)); int(n) < len(s.tags); n++ {
		size := int64(1)
		for _, e := range s.Edges(n) {
			if c := s.size[e.Child]; c <= (math.MaxInt64-size)/e.Count {
				size += e.Count * c
			} else if size = math.MaxInt64; over < 0 {
				over = n
			}
		}
		s.size = append(s.size, size)
	}
	return over
}

// grow returns s with room for n more elements. When it must reallocate
// it at least doubles the capacity, so a builder's arrays cost about
// twice their final size in all, not the five times of append's
// 1.25x steps.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// NumNodes returns the number of unique DAG nodes.
func (s *Skeleton) NumNodes() int { return len(s.tags) }

// NumEdges returns the number of DAG edges (each run-length edge counts
// once, as in the paper's Table 1).
func (s *Skeleton) NumEdges() int { return len(s.edges) }

// Tag returns node n's element tag, or TextStep for a text marker.
func (s *Skeleton) Tag(n NodeID) xmlmodel.Sym { return s.tags[n] }

// IsText reports whether node n is a text marker.
func (s *Skeleton) IsText(n NodeID) bool { return s.tags[n] == TextStep }

// Edges returns node n's child edges in document order. The slice is
// shared and must not be modified.
func (s *Skeleton) Edges(n NodeID) []Edge {
	lo, hi := s.first[n], s.first[n+1]
	return s.edges[lo:hi:hi]
}

// ExpandedSize returns the number of nodes of the original (uncompressed)
// document tree, counting element nodes and text markers — |T| in the paper.
func (s *Skeleton) ExpandedSize() int64 { return s.size[s.Root] }

// String renders the DAG for debugging, one unique node per line.
func (s *Skeleton) String(syms *xmlmodel.Symbols) string {
	var b strings.Builder
	seen := make([]bool, len(s.tags))
	var rec func(n NodeID)
	rec = func(n NodeID) {
		if seen[n] {
			return
		}
		seen[n] = true
		if s.IsText(n) {
			fmt.Fprintf(&b, "n%d: #\n", n)
			return
		}
		fmt.Fprintf(&b, "n%d: %s ->", n, syms.Name(s.tags[n]))
		for _, e := range s.Edges(n) {
			if e.Count == 1 {
				fmt.Fprintf(&b, " n%d", e.Child)
			} else {
				fmt.Fprintf(&b, " n%d(%d)", e.Child, e.Count)
			}
		}
		b.WriteByte('\n')
		for _, e := range s.Edges(n) {
			rec(e.Child)
		}
	}
	rec(s.Root)
	return b.String()
}

// Walk expands the DAG back into the original tree shape, calling enter for
// every node instance in document order and leave when its subtree is done.
// Cost is linear in the expanded size (Prop. 2.2). Text markers get enter
// and leave back to back.
func (s *Skeleton) Walk(enter func(n NodeID) error, leave func(n NodeID) error) error {
	var rec func(n NodeID) error
	rec = func(n NodeID) error {
		if err := enter(n); err != nil {
			return err
		}
		for _, e := range s.Edges(n) {
			for i := int64(0); i < e.Count; i++ {
				if err := rec(e.Child); err != nil {
					return err
				}
			}
		}
		return leave(n)
	}
	return rec(s.Root)
}
