package skeleton

import (
	"sort"
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

type classInfo struct {
	parent   ClassID
	tag      xmlmodel.Sym // TextStep for a text class
	depth    int32
	path     string  // "/bib/book/title", "/bib/book/title/#" for a text class
	nodes    []*Node // distinct DAG nodes at this class, discovery order
	occ      []int64 // occurrences of each of nodes at this class, until its kids are discovered
	kids     map[xmlmodel.Sym]ClassID
	kidList  []ClassID // the kids' values in class-id (discovery) order
	runs     RunMap    // parent-class occurrences -> this class's occurrences (lazy)
	cursor   *Cursor   // shared positional cursor over runs (lazy)
	nodeRuns []NodeRun // DAG node per occurrence, run-length (lazy)
	count    int64     // total occurrences
}

// Classes is the path-class registry of one skeleton. It discovers all
// classes and their occurrence counts eagerly (a pass over (DAG node,
// class) pairs, each visited once) and computes occurrence run-maps
// lazily, memoized per class.
//
// Classes is safe for concurrent use: the class topology (infos, kids,
// parent/tag/depth, counts) is immutable after NewClasses, and the lazily
// computed memos (run maps, cursors, node runs, descendant sets) are
// guarded by one mutex, so many queries can share a registry.
type Classes struct {
	skel  *Skeleton
	syms  *xmlmodel.Symbols
	infos []*classInfo

	mu       sync.Mutex             // guards the lazy fields below and in classInfo
	descMemo map[[2]int32][]ClassID // (class, step) -> descendants; guarded by mu
}

// NewClasses builds the class registry for a skeleton.
func NewClasses(s *Skeleton, syms *xmlmodel.Symbols) *Classes {
	c := &Classes{skel: s, syms: syms}
	root := classInfo{parent: NoClass, tag: s.Root.Tag, depth: 0, path: "/" + syms.Name(s.Root.Tag), count: 1}
	root.nodes, root.occ = []*Node{s.Root}, []int64{1}
	c.infos = append(c.infos, &root)
	// Level-order discovery: all nodes of a class, and how often each
	// occurs there, are known before its children classes are explored,
	// because contributions come only from the parent class.
	for id := ClassID(0); int(id) < len(c.infos); id++ {
		c.discoverChildren(id)
	}
	return c
}

// discoverChildren finds the child classes of id, the DAG nodes at each
// and their occurrence counts: an instance of a node at id occurring k
// times contributes k × edge count occurrences of the edge's child.
func (c *Classes) discoverChildren(id ClassID) {
	info := c.infos[id]
	occs := info.occ
	info.occ = nil // needed only to seed the kids' counts, here
	if info.tag == TextStep {
		return
	}
	info.kids = make(map[xmlmodel.Sym]ClassID)
	at := make(map[[2]int32]int) // (classID, nodeID) -> index in the kid's nodes
	for i, n := range info.nodes {
		occ := occs[i]
		for _, e := range n.Edges {
			step, name := e.Child.Tag, "#"
			if e.Child.IsText {
				step = TextStep
			} else {
				name = c.syms.Name(step)
			}
			kid, ok := info.kids[step]
			if !ok {
				kid = ClassID(len(c.infos))
				c.infos = append(c.infos, &classInfo{parent: id, tag: step, depth: info.depth + 1, path: info.path + "/" + name})
				info.kids[step] = kid
				info.kidList = append(info.kidList, kid)
			}
			k := c.infos[kid]
			key := [2]int32{int32(kid), int32(e.Child.ID)}
			j, ok := at[key]
			if !ok {
				j = len(k.nodes)
				at[key] = j
				k.nodes = append(k.nodes, e.Child)
				k.occ = append(k.occ, 0)
			}
			k.occ[j] += occ * e.Count
			k.count += occ * e.Count
		}
	}
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
	kids := c.infos[id].kids
	if kids == nil {
		return NoClass
	}
	if kid, ok := kids[step]; ok {
		return kid
	}
	return NoClass
}

// Children returns all child classes of id, element classes sorted by tag
// name and the text class (if any) last.
func (c *Classes) Children(id ClassID) []ClassID {
	kids := c.infos[id].kids
	out := make([]ClassID, 0, len(kids))
	for _, kid := range kids {
		out = append(out, kid)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := c.infos[out[i]].tag, c.infos[out[j]].tag
		if (ti == TextStep) != (tj == TextStep) {
			return tj == TextStep
		}
		if ti == TextStep {
			return false
		}
		return c.syms.Name(ti) < c.syms.Name(tj)
	})
	return out
}

// Kids returns the child classes of id in class-id order, without
// sorting or copying: the slice is shared and must not be modified. It is
// the accessor for walks that visit every child and do not care about tag
// order.
func (c *Classes) Kids(id ClassID) []ClassID { return c.infos[id].kidList }

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
		for _, kid := range c.infos[cur].kids {
			if c.infos[kid].tag == step {
				//vx:alloc memo miss only: the answer is kept in descMemo per (class, step)
				out = append(out, kid)
			}
			if c.infos[kid].tag != TextStep {
				queue = append(queue, kid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	c.descMemo[key] = out
	return out
}

// Cursor returns the shared positional cursor over Runs(id), built once.
// Cursors are stateless, so every operation of every query can share them.
func (c *Classes) Cursor(id ClassID) *Cursor {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := c.infos[id]
	if info.cursor == nil {
		info.cursor = NewCursor(c.runsLocked(id))
	}
	return info.cursor
}

// Path returns the class's path string, e.g. "/bib/book/title". A text
// class renders as its parent element's path plus "/#"; the corresponding
// data vector is named by the parent element path alone (VectorName).
func (c *Classes) Path(id ClassID) string { return c.infos[id].path }

// VectorName returns the data-vector name for a text class: the path of
// its parent element, as in the paper ("/bib/book/title").
func (c *Classes) VectorName(id ClassID) string {
	return c.infos[c.infos[id].parent].path
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
// Derivation: the parent class's NodeRuns give, in document order, which
// DAG node each parent occurrence is an instance of; every instance of a
// given node has the same fanout for this class's step, so the run map
// falls out in one linear pass — no per-query traversal of the DAG.
func (c *Classes) runsLocked(id ClassID) RunMap {
	info := c.infos[id]
	if info.runs != nil {
		return info.runs
	}
	if info.parent == NoClass {
		panic("skeleton: Runs on root class")
	}
	step := info.tag
	var rm RunMap
	for _, nr := range c.nodeRunsLocked(info.parent) {
		rm = appendRepeated(rm, RunMap{{Parents: 1, Fanout: fanout(nr.Node, step)}}, nr.Count)
	}
	if rm == nil {
		rm = RunMap{}
	}
	info.runs = rm.normalized()
	return info.runs
}

func matchStep(n *Node, step xmlmodel.Sym) bool {
	if step == TextStep {
		return n.IsText
	}
	return !n.IsText && n.Tag == step
}

// fanout counts the children of one instance of n matching step.
func fanout(n *Node, step xmlmodel.Sym) int64 {
	var k int64
	for _, e := range n.Edges {
		if matchStep(e.Child, step) {
			k += e.Count
		}
	}
	return k
}
