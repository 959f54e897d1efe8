package skeleton

import (
	"encoding/binary"

	"vxml/internal/xmlmodel"
)

// Builder constructs skeletons bottom-up with hash-consing: Make returns
// the existing node for a (tag, children) shape if one exists, so identical
// subtrees are shared (the "folkloric hash-cons" of Prop. 2.1). It also
// merges consecutive identical child edges into a single counted edge.
//
// A Builder appends to one set of node arrays and can finish several
// skeletons over them; each sees the nodes built so far, which is what
// lets the query engine hash-cons a result skeleton as it goes (§4.1
// stepwise compression).
type Builder struct {
	s    Skeleton
	cons map[string]NodeID // hash-cons key (tag, edges) -> node
	text NodeID            // the text marker, or -1 before Text is called
	key  []byte            // scratch
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{s: Skeleton{first: []int32{0}}, cons: make(map[string]NodeID), text: -1}
}

// Text returns the unique '#' text marker node.
func (b *Builder) Text() NodeID {
	if b.text < 0 {
		b.text = b.s.add(TextStep)
	}
	return b.text
}

// Make returns the hash-consed node for an element with the given tag and
// ordered child edges. Consecutive edges to the same child are merged, in
// the caller's slice. The edges slice is never retained, so callers may
// reuse their buffers.
func (b *Builder) Make(tag xmlmodel.Sym, edges []Edge) NodeID {
	edges = mergeRuns(edges)
	b.key = binary.AppendVarint(b.key[:0], int64(tag))
	for _, e := range edges {
		b.key = binary.AppendVarint(b.key, int64(e.Child))
		b.key = binary.AppendVarint(b.key, e.Count)
	}
	if n, ok := b.cons[string(b.key)]; ok {
		return n
	}
	b.s.edges = append(grow(b.s.edges, len(edges)), edges...)
	n := b.s.add(tag)
	b.cons[string(b.key)] = n
	return n
}

// Finish returns the skeleton rooted at root over the nodes built so far.
// The builder remains usable; later skeletons share already-built nodes,
// and nodes built later do not show in this one.
func (b *Builder) Finish(root NodeID) *Skeleton {
	b.s.addSizes()
	s := b.s
	n, m := len(s.tags), len(s.edges)
	return &Skeleton{Root: root, tags: s.tags[:n:n], first: s.first[: n+1 : n+1], edges: s.edges[:m:m], size: s.size[:n:n]}
}

// mergeRuns merges consecutive edges to the same child node.
func mergeRuns(edges []Edge) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if e.Count == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Child == e.Child {
			out[len(out)-1].Count += e.Count
			continue
		}
		out = append(out, e)
	}
	return out
}

// Importer copies subtrees of one skeleton into a builder, sharing where
// shapes coincide — how a result skeleton embeds subtrees of the input
// document, how shard results and shard roots concatenate, and how an
// append compacts. Its memo is indexed by source NodeID, so a subtree
// shared in the source is imported once however often it is reached.
// With tag translation, tags are re-interned by name from one symbol
// table into another, for skeletons that interned tags in different
// orders.
type Importer struct {
	dst      *Builder
	src      *Skeleton
	from, to *xmlmodel.Symbols
	tags     []xmlmodel.Sym // source tag -> destination tag, filled on use
	memo     []NodeID       // source node -> imported node + 1; 0 if not yet
	buf      []Edge         // scratch: the edges of the nodes being imported, innermost last
}

// NewImporter returns an importer of src's nodes into dst. When from and
// to differ, src's tags are symbols of from and are translated by name
// into to; otherwise they are copied as they are.
func NewImporter(dst *Builder, src *Skeleton, from, to *xmlmodel.Symbols) *Importer {
	return &Importer{dst: dst, src: src, from: from, to: to}
}

// Import returns the destination node for source node n, importing its
// subtree children first in edge order — so a fresh builder numbers the
// nodes in the order the source's bottom-up build did.
func (im *Importer) Import(n NodeID) NodeID {
	if im.memo == nil {
		im.memo = make([]NodeID, im.src.NumNodes())
	}
	if m := im.memo[n]; m != 0 {
		return m - 1
	}
	var m NodeID
	if tag := im.src.tags[n]; tag == TextStep {
		m = im.dst.Text()
	} else {
		base := len(im.buf)
		for _, e := range im.src.Edges(n) {
			c := im.Import(e.Child)
			im.buf = append(im.buf, Edge{Child: c, Count: e.Count})
		}
		m = im.dst.Make(im.tag(tag), im.buf[base:])
		im.buf = im.buf[:base]
	}
	im.memo[n] = m + 1
	return m
}

// AppendRootEdges appends the source root's child edges, imported, to
// edges: splicing one skeleton's top-level children under another root.
func (im *Importer) AppendRootEdges(edges []Edge) []Edge {
	for _, e := range im.src.Edges(im.src.Root) {
		edges = append(edges, Edge{Child: im.Import(e.Child), Count: e.Count})
	}
	return edges
}

// tag translates a source element tag.
func (im *Importer) tag(t xmlmodel.Sym) xmlmodel.Sym {
	if im.from == im.to {
		return t
	}
	if int(t) >= len(im.tags) {
		im.tags = append(im.tags, make([]xmlmodel.Sym, int(t)+1-len(im.tags))...)
	}
	if im.tags[t] == xmlmodel.NoSym {
		im.tags[t] = im.to.Intern(im.from.Name(t))
	}
	return im.tags[t]
}

// FromTree builds the compressed skeleton of an xmlmodel tree: text nodes
// become the shared '#' marker and identical subtrees are shared. This is
// the skeleton half of vectorization (the vector half lives in
// internal/vectorize, which builds both in one pass).
func FromTree(root *xmlmodel.Node, b *Builder) *Skeleton {
	var rec func(n *xmlmodel.Node) NodeID
	rec = func(n *xmlmodel.Node) NodeID {
		if n.IsText() {
			return b.Text()
		}
		edges := make([]Edge, 0, len(n.Kids))
		for _, k := range n.Kids {
			edges = append(edges, Edge{Child: rec(k), Count: 1})
		}
		return b.Make(n.Tag, edges)
	}
	return b.Finish(rec(root))
}
