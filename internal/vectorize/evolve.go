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
	skel := evolve(repo, skeleton.NewBuilder(), drop, skeleton.NoClass, 0)

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
	skel := evolve(repo, b, skeleton.NoClass, parent, leaf)

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

// evolve rebuilds repo's skeleton in b one (node, class) pair at a time,
// since a node shared by two classes may change at one and not the
// other. It leaves out every instance of class drop, with its subtree,
// and gives every instance of class extend one more last child, leaf.
// Either class may be NoClass.
func evolve(repo *MemRepositoryView, b *skeleton.Builder, drop, extend skeleton.ClassID, leaf skeleton.NodeID) *skeleton.Skeleton {
	s, cls := repo.Skel, repo.Classes
	memo := map[[2]int32]skeleton.NodeID{}
	var rec func(n skeleton.NodeID, c skeleton.ClassID) skeleton.NodeID
	rec = func(n skeleton.NodeID, c skeleton.ClassID) skeleton.NodeID {
		if s.IsText(n) {
			return b.Text()
		}
		key := [2]int32{int32(n), int32(c)}
		if m, ok := memo[key]; ok {
			return m
		}
		edges := make([]skeleton.Edge, 0, len(s.Edges(n))+1)
		for _, e := range s.Edges(n) {
			if kid := cls.Child(c, s.Tag(e.Child)); kid != drop {
				edges = append(edges, skeleton.Edge{Child: rec(e.Child, kid), Count: e.Count})
			}
		}
		if c == extend {
			edges = append(edges, skeleton.Edge{Child: leaf, Count: 1})
		}
		m := b.Make(s.Tag(n), edges)
		memo[key] = m
		return m
	}
	return b.Finish(rec(s.Root, cls.Root()))
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
