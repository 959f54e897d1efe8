package skeleton

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"vxml/internal/xmlmodel"
)

// ClassID identifies a path class of a skeleton: a distinct root-to-node
// sequence of tags. Class 0 is the root element's class. The text marker
// under an element class is itself a (text) class; its occurrences are, by
// construction, exactly the positions of the corresponding data vector.
type ClassID int32

// NoClass is returned by lookups that find no class.
const NoClass ClassID = -1

// TextStep is the pseudo-tag selecting the text-marker child of a class.
const TextStep xmlmodel.Sym = -1

// classInfo is one class's place in the trie. It holds no pointer, so the
// registry is a few flat arrays however many classes a document has.
type classInfo struct {
	parent ClassID
	tag    xmlmodel.Sym // TextStep for a text class
	depth  int32
	kidHi  ClassID // the kids are the IDs [kidLo, kidHi), kidLo being the previous class's kidHi
	count  int64   // total occurrences
}

// classMemo holds one class's lazily derived values.
type classMemo struct {
	path     string    // "/bib/book/title", "/bib/book/title/#" for a text class
	runs     RunMap    // parent-class occurrences -> this class's occurrences
	cursor   *Cursor   // shared positional cursor over runs
	nodeRuns []NodeRun // DAG node per occurrence, run-length
}

// Classes is the path-class registry of one skeleton. It discovers all
// classes and their occurrence counts eagerly (a pass over (DAG node,
// class) pairs, each visited once) and derives paths and occurrence
// run-maps lazily, memoized per class. Level-order discovery gives the
// kids of a class consecutive IDs, so the trie is flat arrays indexed by
// ClassID and a class's kids are an ID range.
//
// Classes is safe for concurrent use: the class topology (parent, tag,
// depth, kids, counts) is immutable after NewClasses, and the lazily
// computed memos (paths, run maps, cursors, node runs, descendant sets)
// are guarded by one mutex, so many queries can share a registry.
type Classes struct {
	skel  *Skeleton
	syms  *xmlmodel.Symbols
	infos []classInfo // by ClassID
	ids   []ClassID   // ids[i] == i; Kids slices it

	// The distinct DAG nodes instancing each class, bucketed by class in
	// ID order: class id's are nodes[end[id-1]:end[id]] (from 0 for the
	// root). Regular classes have one or a few, which is what lets
	// runsLocked and nodeRunsLocked answer them without an occurrence walk.
	nodes []NodeID
	end   []int

	mu       sync.Mutex             // guards the lazy fields below
	memos    []classMemo            // by ClassID; guarded by mu
	descMemo map[[2]int32][]ClassID // (class, step) -> descendants; guarded by mu
}

// NewClasses builds the class registry for a skeleton.
//
// Level-order discovery: all nodes of a class, and how often each occurs
// there, are known before its children classes are explored, because
// contributions come only from the parent class. The nodes at the classes
// sit in one buffer, bucketed by class in class order: a class's pass
// over its nodes' edges appends each kid's nodes in order of first
// appearance, and a stable sort by kid then makes the kids' buckets.
func NewClasses(s *Skeleton, syms *xmlmodel.Symbols) *Classes {
	maxTag := xmlmodel.Sym(0)
	for _, t := range s.tags {
		maxTag = max(maxTag, t)
	}
	type occurrence struct {
		node  NodeID
		class ClassID
		occ   int64
	}
	// Documents have a few classes per DAG node: starting the arrays at
	// twice the node count saves most of their regrowth.
	guess := 2*s.NumNodes() + 1
	infos := slices.Grow([]classInfo{{parent: NoClass, tag: s.tags[s.Root], count: 1}}, guess)
	occs := slices.Grow([]occurrence{{node: s.Root, occ: 1}}, guess)
	end := slices.Grow([]int{1}, guess) // ClassID -> end of its bucket in occs
	kidOf := make([]ClassID, maxTag+2)  // step+1 -> its kid of the class in hand, if not below kidLo
	at := make([]int, s.NumNodes())     // NodeID -> its slot in occs, if not below base
	byClass := func(a, b occurrence) int { return cmp.Compare(a.class, b.class) }
	for id, lo := ClassID(0), 0; int(id) < len(infos); id++ {
		hi, kidLo, base := end[id], ClassID(len(infos)), len(occs)
		for _, o := range occs[lo:hi] {
			for _, e := range s.Edges(o.node) {
				st := s.tags[e.Child]
				kid := kidOf[st+1]
				if kid < kidLo {
					kid = ClassID(len(infos))
					kidOf[st+1] = kid
					infos = append(infos, classInfo{parent: id, tag: st, depth: infos[id].depth + 1})
				}
				add := o.occ * e.Count
				infos[kid].count += add
				j := at[e.Child]
				if j < base {
					j = len(occs)
					at[e.Child] = j
					occs = append(occs, occurrence{node: e.Child, class: kid})
				}
				occs[j].occ += add
			}
		}
		slices.SortStableFunc(occs[base:], byClass)
		for j := base; j < len(occs); j++ {
			if j+1 == len(occs) || occs[j+1].class != occs[j].class {
				end = append(end, j+1)
			}
		}
		infos[id].kidHi = ClassID(len(infos))
		lo = hi
	}
	c := &Classes{skel: s, syms: syms, infos: infos, ids: make([]ClassID, len(infos)), memos: make([]classMemo, len(infos)),
		nodes: make([]NodeID, len(occs)), end: end}
	for i := range c.ids {
		c.ids[i] = ClassID(i)
	}
	for i, o := range occs {
		c.nodes[i] = o.node
	}
	return c
}

// nodesOf returns the distinct DAG nodes instancing class id.
func (c *Classes) nodesOf(id ClassID) []NodeID {
	lo := 0
	if id > 0 {
		lo = c.end[id-1]
	}
	return c.nodes[lo:c.end[id]]
}

// Root returns the root element's class.
func (c *Classes) Root() ClassID { return 0 }

// NumClasses returns the number of discovered classes (element and text).
func (c *Classes) NumClasses() int { return len(c.infos) }

// Tag returns the tag of a class (TextStep for a text class).
func (c *Classes) Tag(id ClassID) xmlmodel.Sym { return c.infos[id].tag }

// IsText reports whether id is a text class.
func (c *Classes) IsText(id ClassID) bool { return c.infos[id].tag == TextStep }

// Parent returns the parent class, or NoClass for the root.
func (c *Classes) Parent(id ClassID) ClassID { return c.infos[id].parent }

// Depth returns the class depth (root is 0).
func (c *Classes) Depth(id ClassID) int { return int(c.infos[id].depth) }

// Child resolves one step from a class: a tag, or TextStep for the text
// child. It returns NoClass if the document has no such path.
func (c *Classes) Child(id ClassID, step xmlmodel.Sym) ClassID {
	for _, kid := range c.Kids(id) {
		if c.infos[kid].tag == step {
			return kid
		}
	}
	return NoClass
}

// Children returns all child classes of id, element classes sorted by tag
// name and the text class (if any) last.
func (c *Classes) Children(id ClassID) []ClassID {
	out := slices.Clone(c.Kids(id))
	slices.SortFunc(out, func(a, b ClassID) int {
		ta, tb := c.infos[a].tag, c.infos[b].tag
		if ta == TextStep || tb == TextStep {
			return cmp.Compare(tb, ta) // TextStep is below every tag
		}
		return strings.Compare(c.syms.Name(ta), c.syms.Name(tb))
	})
	return out
}

// Kids returns the child classes of id in class-id order, without
// sorting or copying: the slice is shared and must not be modified. It is
// the accessor for walks that visit every child and do not care about tag
// order.
func (c *Classes) Kids(id ClassID) []ClassID {
	lo, hi := ClassID(1), c.infos[id].kidHi
	if id > 0 {
		lo = c.infos[id-1].kidHi
	}
	return c.ids[lo:hi:hi]
}

// Descendants returns every class strictly below id whose tag matches
// step (the '//' axis), sorted by class id. step may be TextStep. Results
// are memoized: descendant-axis queries resolve the same (class, step)
// pair once per table segment.
func (c *Classes) Descendants(id ClassID, step xmlmodel.Sym) []ClassID {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := [2]int32{int32(id), int32(step)}
	if c.descMemo == nil {
		c.descMemo = make(map[[2]int32][]ClassID)
	}
	if out, ok := c.descMemo[key]; ok {
		return out
	}
	var out []ClassID
	queue := []ClassID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, kid := range c.Kids(cur) {
			if c.infos[kid].tag == step {
				// Memo miss only: the answer is kept in descMemo per (class, step).
				out = append(out, kid)
			}
			if c.infos[kid].tag != TextStep {
				queue = append(queue, kid)
			}
		}
	}
	slices.Sort(out)
	c.descMemo[key] = out
	return out
}

// Cursor returns the shared positional cursor over Runs(id), built once.
// Cursors are stateless, so every operation of every query can share them.
func (c *Classes) Cursor(id ClassID) *Cursor {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &c.memos[id]
	if m.cursor == nil {
		m.cursor = NewCursor(c.runsLocked(id))
	}
	return m.cursor
}

// Path returns the class's path string, e.g. "/bib/book/title". A text
// class renders as its parent element's path plus "/#"; the corresponding
// data vector is named by the parent element path alone (VectorName).
// Paths are derived along the parent chain on first use and memoized, so
// only the classes callers reach, and their ancestors, pay for a string.
func (c *Classes) Path(id ClassID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pathLocked(id)
}

//vx:locked mu
func (c *Classes) pathLocked(id ClassID) string {
	m := &c.memos[id]
	if m.path == "" {
		prefix, name := "", "#"
		if p := c.infos[id].parent; p != NoClass {
			prefix = c.pathLocked(p)
		}
		if tag := c.infos[id].tag; tag != TextStep {
			name = c.syms.Name(tag)
		}
		m.path = prefix + "/" + name
	}
	return m.path
}

// VectorName returns the data-vector name for a text class: the path of
// its parent element, as in the paper ("/bib/book/title").
func (c *Classes) VectorName(id ClassID) string {
	return c.Path(c.infos[id].parent)
}

// TextClasses returns all text classes, sorted by id (document discovery
// order). There is one data vector per text class.
func (c *Classes) TextClasses() []ClassID {
	var out []ClassID
	for id := range c.infos {
		if c.infos[id].tag == TextStep {
			out = append(out, ClassID(id))
		}
	}
	return out
}

// Resolve walks a '/'-separated path of tag names from the root class,
// returning the class it denotes, or NoClass. The first component must be
// the root tag. "#" selects a text child.
func (c *Classes) Resolve(path string) ClassID {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 0 || parts[0] != c.syms.Name(c.infos[0].tag) {
		return NoClass
	}
	cur := ClassID(0)
	for _, p := range parts[1:] {
		step := TextStep
		if p != "#" {
			if s := c.syms.Lookup(p); s != xmlmodel.NoSym {
				step = s
			} else {
				return NoClass
			}
		}
		cur = c.Child(cur, step)
		if cur == NoClass {
			return NoClass
		}
	}
	return cur
}

// Count returns the total number of occurrences of a class in the
// document, counted at discovery. For a text class this is the data
// vector's length.
func (c *Classes) Count(id ClassID) int64 { return c.infos[id].count }

// Runs returns the run mapping from the parent class's occurrences to
// this class's occurrences, computed and memoized on first use. It panics
// for the root class, which has no parent.
func (c *Classes) Runs(id ClassID) RunMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runsLocked(id)
}

// runsLocked is Runs with c.mu held; lazy derivations recurse through the
// unlocked internals so the mutex is taken exactly once per public call.
//
// Every instance of a given DAG node has the same fanout for this class's
// step. So when all the nodes instancing the parent class have the same
// fanout f, the run map is one run {parents, f}, read off the class's
// nodes without visiting a parent occurrence (regular data: a table row,
// an XMark person). Otherwise the parent class's NodeRuns give, in
// document order, which node each parent occurrence is an instance of,
// and the run map falls out of them in one linear pass (deriveRuns).
//
//vx:locked mu
func (c *Classes) runsLocked(id ClassID) RunMap {
	m := &c.memos[id]
	if m.runs != nil {
		return m.runs
	}
	info := c.infos[id]
	if info.parent == NoClass {
		panic("skeleton: Runs on root class")
	}
	if f, ok := c.uniformFanout(info.parent, info.tag); ok {
		m.runs = RunMap{{Parents: c.infos[info.parent].count, Fanout: f}}
	} else {
		m.runs = deriveRuns(c.skel, c.nodeRunsLocked(info.parent), info.tag)
	}
	return m.runs
}

// uniformFanout reports the fanout for step shared by every DAG node
// instancing class p, if they all share one.
func (c *Classes) uniformFanout(p ClassID, step xmlmodel.Sym) (int64, bool) {
	nodes := c.nodesOf(p)
	f := c.skel.fanout(nodes[0], step)
	for _, n := range nodes[1:] {
		if c.skel.fanout(n, step) != f {
			return 0, false
		}
	}
	return f, true
}

// deriveRuns is the run map of the child class reached by step from a
// class whose occurrences are the node runs parent.
func deriveRuns(s *Skeleton, parent []NodeRun, step xmlmodel.Sym) RunMap {
	var rm RunMap
	for _, nr := range parent {
		rm = appendRepeated(rm, RunMap{{Parents: 1, Fanout: s.fanout(nr.Node, step)}}, nr.Count)
	}
	if rm == nil {
		rm = RunMap{}
	}
	return rm.normalized()
}

// fanout counts the children of one instance of n matching step.
func (s *Skeleton) fanout(n NodeID, step xmlmodel.Sym) int64 {
	var k int64
	for _, e := range s.Edges(n) {
		if s.tags[e.Child] == step {
			k += e.Count
		}
	}
	return k
}
