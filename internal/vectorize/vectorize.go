// Package vectorize ties the decomposition together: it turns an XML
// document into its vectorized representation VEC(T) = (S, V) in a single
// linear pass (Prop. 2.1), reconstructs the document losslessly from
// (S, V) (Prop. 2.2), and manages on-disk repositories holding a skeleton
// file plus the vectors of every root-to-text path, packed into one
// segment behind one directory.
package vectorize

import (
	"fmt"
	"io"
	"sort"

	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

// Sink receives data values during vectorization, keyed by vector name
// (the tag path to the text's parent element, e.g. "/bib/book/title").
//
// Append must copy val before returning: callers may pass memory they
// reuse or unpin immediately after the call — the query engine's result
// path hands over bytes that alias a pinned buffer-pool frame (the
// Vector.Scan contract), which is recycled as soon as the scan moves on.
// Sinks are single-owner: one goroutine drives a sink from creation
// through Close.
type Sink interface {
	Append(name string, val []byte) error
}

// MemSink appends into an in-memory vector set. The string conversion
// copies val, satisfying the Sink contract.
type MemSink struct{ Set *vector.MemSet }

// Append implements Sink.
func (m MemSink) Append(name string, val []byte) error {
	m.Set.Add(name).Append(string(val))
	return nil
}

// DiskSink appends into a DiskSet: to the end of existing vectors, and
// into vectors it creates for new paths, with one writer per vector opened
// on its first value. Call Close after the parse to finalize all vectors
// and commit the set. The vector writers copy val before returning,
// satisfying the Sink contract.
type DiskSink struct {
	Set     *vector.DiskSet
	writers map[string]*vector.Writer
}

// NewDiskSink returns a sink appending into set.
func NewDiskSink(set *vector.DiskSet) *DiskSink {
	return &DiskSink{Set: set, writers: make(map[string]*vector.Writer)}
}

// NewStoreSink starts a repository's empty vector set in store and returns
// a sink writing into it — the bulk build of Create and EvalToDir.
func NewStoreSink(store *storage.Store, compress bool) (*DiskSink, error) {
	set, err := vector.CreateDiskSet(store, vectorStem, compress)
	if err != nil {
		return nil, err
	}
	return NewDiskSink(set), nil
}

// Append implements Sink.
func (d *DiskSink) Append(name string, val []byte) error {
	w, ok := d.writers[name]
	if !ok {
		var err error
		if w, err = d.Set.AppendWriter(name); err != nil {
			return err
		}
		d.writers[name] = w
	}
	return w.Append(val)
}

// Close finalizes every vector written to, in name order — so vectors
// sharing a path prefix pack their tails side by side — and commits the
// set: segment pages fsynced, then the directory.
func (d *DiskSink) Close() error {
	names := make([]string, 0, len(d.writers))
	for name := range d.writers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := d.writers[name].Close(); err != nil {
			return err
		}
	}
	return d.Set.Save()
}

// Vectorizer is an xmlmodel.Handler that builds the compressed skeleton
// and streams data values to a Sink as the document is parsed — one pass,
// linear time, with hash-consing performed bottom-up as elements close.
type Vectorizer struct {
	builder *skeleton.Builder
	syms    *xmlmodel.Symbols
	sink    Sink

	frames []frame
	path   *pathTrie
	root   *skeleton.Node
}

type frame struct {
	tag   xmlmodel.Sym
	edges []skeleton.Edge
	path  *pathTrie
}

// pathTrie interns tag paths so vector names are built once per distinct
// path rather than once per node.
type pathTrie struct {
	name string
	kids map[xmlmodel.Sym]*pathTrie
}

func (p *pathTrie) child(tag xmlmodel.Sym, syms *xmlmodel.Symbols) *pathTrie {
	if p.kids == nil {
		p.kids = make(map[xmlmodel.Sym]*pathTrie)
	}
	if k, ok := p.kids[tag]; ok {
		return k
	}
	k := &pathTrie{name: p.name + "/" + syms.Name(tag)}
	p.kids[tag] = k
	return k
}

// NewVectorizer returns a vectorizer delivering values to sink.
func NewVectorizer(syms *xmlmodel.Symbols, sink Sink) *Vectorizer {
	return &Vectorizer{builder: skeleton.NewBuilder(), syms: syms, sink: sink}
}

// Event implements xmlmodel.Handler.
func (v *Vectorizer) Event(ev xmlmodel.Event) error {
	switch ev.Kind {
	case xmlmodel.StartElement:
		var p *pathTrie
		if len(v.frames) == 0 {
			p = &pathTrie{name: "/" + v.syms.Name(ev.Tag)}
		} else {
			p = v.frames[len(v.frames)-1].path.child(ev.Tag, v.syms)
		}
		v.frames = append(v.frames, frame{tag: ev.Tag, path: p})
	case xmlmodel.Text:
		if len(v.frames) == 0 {
			return fmt.Errorf("vectorize: text outside root")
		}
		top := &v.frames[len(v.frames)-1]
		if err := v.sink.Append(top.path.name, []byte(ev.Text)); err != nil {
			return err
		}
		top.edges = append(top.edges, skeleton.Edge{Child: v.builder.Text(), Count: 1})
	case xmlmodel.EndElement:
		top := v.frames[len(v.frames)-1]
		v.frames = v.frames[:len(v.frames)-1]
		n := v.builder.Make(top.tag, top.edges)
		if len(v.frames) == 0 {
			v.root = n
		} else {
			parent := &v.frames[len(v.frames)-1]
			parent.edges = append(parent.edges, skeleton.Edge{Child: n, Count: 1})
		}
	}
	return nil
}

// Skeleton returns the finished compressed skeleton. Call it only after a
// complete, balanced event stream.
func (v *Vectorizer) Skeleton() (*skeleton.Skeleton, error) {
	if v.root == nil || len(v.frames) != 0 {
		return nil, fmt.Errorf("vectorize: incomplete document (depth %d)", len(v.frames))
	}
	return v.builder.Finish(v.root), nil
}

// Builder exposes the vectorizer's hash-cons builder (the query engine
// extends result skeletons with it).
func (v *Vectorizer) Builder() *skeleton.Builder { return v.builder }

// VectorizeStream parses XML from r and vectorizes it into sink, returning
// the skeleton.
func VectorizeStream(r io.Reader, syms *xmlmodel.Symbols, sink Sink) (*skeleton.Skeleton, error) {
	vz := NewVectorizer(syms, sink)
	if err := xmlmodel.NewParser(r, syms).Run(vz); err != nil {
		return nil, err
	}
	return vz.Skeleton()
}

// VectorizeTree vectorizes an in-memory tree into an in-memory vector set.
func VectorizeTree(root *xmlmodel.Node, syms *xmlmodel.Symbols) (*skeleton.Skeleton, *vector.MemSet, error) {
	set := vector.NewMemSet()
	vz := NewVectorizer(syms, MemSink{Set: set})
	if err := xmlmodel.EmitTree(root, vz); err != nil {
		return nil, nil, err
	}
	skel, err := vz.Skeleton()
	if err != nil {
		return nil, nil, err
	}
	return skel, set, nil
}

// UseBuilder replaces the vectorizer's hash-cons builder, so fragments can
// be built into an existing skeleton's builder (used by Repository.Append).
func (v *Vectorizer) UseBuilder(b *skeleton.Builder) { v.builder = b }
