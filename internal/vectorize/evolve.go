package vectorize

import (
	"fmt"
	"sort"

	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

// Schema evolution (§6 of the paper: "vectorization may simplify schema
// evolution, e.g., adding/removing a column"). Both operations build a
// new skeleton with hash-consing and leave untouched vectors shared with
// the input via an overlay set — no data vector is rewritten.

// DropPath removes every element reachable at the given class path (and
// its entire subtree) from the document: the column-drop of a vectorized
// store. The result shares all surviving vectors with the input.
func DropPath(repo *MemRepositoryView, path string) (*MemRepository, error) {
	drop := repo.Classes.Resolve(path)
	if drop == skeleton.NoClass {
		return nil, fmt.Errorf("vectorize: no path %q to drop", path)
	}
	if drop == repo.Classes.Root() {
		return nil, fmt.Errorf("vectorize: cannot drop the document root")
	}
	b := skeleton.NewBuilder()
	memo := map[[2]int32]*skeleton.Node{}
	var rec func(n *skeleton.Node, cls skeleton.ClassID) *skeleton.Node
	rec = func(n *skeleton.Node, cls skeleton.ClassID) *skeleton.Node {
		if n.IsText {
			return b.Text()
		}
		key := [2]int32{int32(n.ID), int32(cls)}
		if m, ok := memo[key]; ok {
			return m
		}
		var edges []skeleton.Edge
		for _, e := range n.Edges {
			step := e.Child.Tag
			if e.Child.IsText {
				step = skeleton.TextStep
			}
			kid := repo.Classes.Child(cls, step)
			if kid == drop {
				continue
			}
			edges = append(edges, skeleton.Edge{Child: rec(e.Child, kid), Count: e.Count})
		}
		m := b.Make(n.Tag, edges)
		memo[key] = m
		return m
	}
	root := rec(repo.Skel.Root, repo.Classes.Root())
	skel := b.Finish(root)

	// Hide the vectors under the dropped class.
	hidden := map[string]bool{}
	for _, t := range repo.Classes.Descendants(drop, skeleton.TextStep) {
		hidden[repo.Classes.VectorName(t)] = true
	}
	if t := repo.Classes.Child(drop, skeleton.TextStep); t != skeleton.NoClass {
		hidden[repo.Classes.VectorName(t)] = true
	}
	out := &overlaySet{base: repo.Vectors, hidden: hidden, added: map[string]*vector.Mem{}}
	return &MemRepository{
		Syms:    repo.Syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, repo.Syms),
		Vectors: out,
	}, nil
}

// AddColumn appends a new leaf element <tag>value</tag> as the last child
// of every instance of the parent class path — the column-add. One new
// vector is created; everything else is shared.
func AddColumn(repo *MemRepositoryView, parentPath, tag, value string) (*MemRepository, error) {
	parent := repo.Classes.Resolve(parentPath)
	if parent == skeleton.NoClass {
		return nil, fmt.Errorf("vectorize: no path %q to extend", parentPath)
	}
	if repo.Classes.IsText(parent) {
		return nil, fmt.Errorf("vectorize: cannot add a column under text")
	}
	sym := repo.Syms.Intern(tag)
	if repo.Classes.Child(parent, sym) != skeleton.NoClass {
		return nil, fmt.Errorf("vectorize: %s already has a %s child class", parentPath, tag)
	}
	b := skeleton.NewBuilder()
	leaf := b.Make(sym, []skeleton.Edge{{Child: b.Text(), Count: 1}})
	memo := map[[2]int32]*skeleton.Node{}
	var rec func(n *skeleton.Node, cls skeleton.ClassID) *skeleton.Node
	rec = func(n *skeleton.Node, cls skeleton.ClassID) *skeleton.Node {
		if n.IsText {
			return b.Text()
		}
		key := [2]int32{int32(n.ID), int32(cls)}
		if m, ok := memo[key]; ok {
			return m
		}
		edges := make([]skeleton.Edge, 0, len(n.Edges)+1)
		for _, e := range n.Edges {
			step := e.Child.Tag
			if e.Child.IsText {
				step = skeleton.TextStep
			}
			edges = append(edges, skeleton.Edge{Child: rec(e.Child, repo.Classes.Child(cls, step)), Count: e.Count})
		}
		if cls == parent {
			edges = append(edges, skeleton.Edge{Child: leaf, Count: 1})
		}
		m := b.Make(n.Tag, edges)
		memo[key] = m
		return m
	}
	root := rec(repo.Skel.Root, repo.Classes.Root())
	skel := b.Finish(root)

	newVec := &vector.Mem{}
	for i := int64(0); i < repo.Classes.Count(parent); i++ {
		newVec.Append(value)
	}
	name := parentPath + "/" + tag
	out := &overlaySet{
		base:   repo.Vectors,
		hidden: map[string]bool{},
		added:  map[string]*vector.Mem{name: newVec},
	}
	return &MemRepository{
		Syms:    repo.Syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, repo.Syms),
		Vectors: out,
	}, nil
}

// MemRepositoryView is the read view evolution operates on; both
// Repository and MemRepository satisfy it trivially.
type MemRepositoryView struct {
	Syms    *xmlmodel.Symbols
	Skel    *skeleton.Skeleton
	Classes *skeleton.Classes
	Vectors vector.Set
}

// View adapts a MemRepository.
func (m *MemRepository) View() *MemRepositoryView {
	return &MemRepositoryView{Syms: m.Syms, Skel: m.Skel, Classes: m.Classes, Vectors: m.Vectors}
}

// View adapts an on-disk Repository.
func (r *Repository) View() *MemRepositoryView {
	return &MemRepositoryView{Syms: r.Syms, Skel: r.Skel, Classes: r.Classes, Vectors: r.Vectors}
}

// overlaySet presents base minus hidden plus added, sharing base storage.
type overlaySet struct {
	base   vector.Set
	hidden map[string]bool
	added  map[string]*vector.Mem
}

func (o *overlaySet) Names() []string {
	base := o.base.Names()
	out := make([]string, 0, len(base)+len(o.added))
	for _, n := range base {
		if !o.hidden[n] {
			out = append(out, n)
		}
	}
	for n := range o.added {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (o *overlaySet) Vector(name string) (vector.Vector, error) {
	if v, ok := o.added[name]; ok {
		return v, nil
	}
	if o.hidden[name] {
		return nil, fmt.Errorf("vectorize: vector %q was dropped", name)
	}
	return o.base.Vector(name)
}
