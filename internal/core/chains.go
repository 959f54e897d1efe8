package core

import (
	"slices"

	"vxml/internal/skeleton"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// A chain is the unique class-trie path from a source class (exclusive)
// down to a target class (inclusive). Steps with the descendant axis or
// wildcard can resolve to several target classes; each gets its own chain.

// resolveTargets returns the set of classes reachable from src via the
// steps, sorted by class id. An empty step list resolves to {src}. It has
// no side effects: an op resolves each source class once (pathRes), and
// CheckPlan walks the same code.
func (e *Engine) resolveTargets(src skeleton.ClassID, steps []xq.Step) []skeleton.ClassID {
	cur := map[skeleton.ClassID]bool{src: true}
	for _, s := range steps {
		next := map[skeleton.ClassID]bool{}
		for c := range cur {
			if e.Classes.IsText(c) {
				continue // cannot step below text
			}
			switch {
			case s.Axis == xq.Descendant && s.Name == "*":
				for _, d := range e.descendantElements(c) {
					next[d] = true
				}
			case s.Axis == xq.Descendant:
				sym := e.Syms.Lookup(s.Name)
				if sym == xmlmodel.NoSym {
					continue
				}
				for _, d := range e.Classes.Descendants(c, sym) {
					next[d] = true
				}
			case s.Name == "*":
				for _, k := range e.Classes.Kids(c) {
					if !e.Classes.IsText(k) {
						next[k] = true
					}
				}
			default:
				sym := e.Syms.Lookup(s.Name)
				if sym == xmlmodel.NoSym {
					continue
				}
				if k := e.Classes.Child(c, sym); k != skeleton.NoClass {
					next[k] = true
				}
			}
		}
		cur = next
	}
	out := make([]skeleton.ClassID, 0, len(cur))
	for c := range cur {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// chain is one target of an op's path from one source class.
type chain struct {
	dst  skeleton.ClassID   // the target class; for a value op, its text class
	down []*skeleton.Cursor // one cursor per class below the source, down to dst
	slot int                // value ops: index of dst in pathRes.texts
}

// pathRes is one op's resolution of its path: the chains from each source
// class, resolved on first use and kept for the rest of the op, so a
// class-set column resolves each of its classes once however many rows
// it has. For a value op (text set) targets extend to their text child,
// targets without one are skipped, and each distinct text class gets a
// vector slot.
type pathRes struct {
	x     *evalContext
	steps []xq.Step
	text  bool
	by    map[skeleton.ClassID][]chain
	texts []skeleton.ClassID // text class of each vector slot
	slots map[skeleton.ClassID]int
}

func (x *evalContext) paths(steps []xq.Step, text bool) *pathRes {
	return &pathRes{x: x, steps: steps, text: text, by: map[skeleton.ClassID][]chain{}, slots: map[skeleton.ClassID]int{}}
}

// from returns the chains from source class src. It resolves on first
// use, so only the serial part of an op may call it for a new class.
func (p *pathRes) from(src skeleton.ClassID) []chain {
	if chains, ok := p.by[src]; ok {
		return chains
	}
	e := p.x.e
	var chains []chain
	for _, dst := range e.resolveTargets(src, p.steps) {
		ch := chain{dst: dst}
		if p.text {
			if ch.dst = e.textTarget(dst); ch.dst == skeleton.NoClass {
				continue
			}
			slot, ok := p.slots[ch.dst]
			if !ok {
				slot = len(p.texts)
				p.slots[ch.dst] = slot
				p.texts = append(p.texts, ch.dst)
			}
			ch.slot = slot
		}
		ch.down = e.chainCursors(src, ch.dst)
		chains = append(chains, ch)
	}
	p.by[src] = chains
	return chains
}

// scanRow is one row of a scan fan-out (pathRes.scan): chunk ci's row ri,
// its class and occurrence in the scanned column, the op's chains from
// that class, and the chunk's readers.
type scanRow struct {
	ci, ri int
	class  skeleton.ClassID
	occ    int64
	chains []chain
	rs     chunkReaders
}

// scan fans a value scan of column col out over seg's rows in nch chunks,
// calling fn for each row. Rows go by their column entry, so a class-set
// column's classes are contiguous and every vector is read forward, and
// no chunk boundary splits a class. A chunk reads a vector through the
// evaluation's reader (readerFor) when it is the first chunk to need the
// vector, and through a reader of its own otherwise — so with one worker,
// or chunks that share no vector, each extent is decoded once per
// evaluation. Slots that a non-nil indexed reports are served without a
// scan and never opened; it is called once per slot, before the fan-out.
func (p *pathRes) scan(seg *Segment, col, nch int, indexed func(slot int, text skeleton.ClassID) bool, fn func(r scanRow) error) error {
	classes := seg.classesOf(col)
	for _, c := range classes {
		p.from(c)
	}
	shared := make([]*reader, len(p.texts))
	for slot, text := range p.texts {
		if indexed == nil || !indexed(slot, text) {
			var err error
			if shared[slot], err = p.x.readerFor(text); err != nil {
				return err
			}
		}
	}
	keys := seg.byEntry(col)
	bounds := make([]int, nch+1)
	for ci := 0; ci < nch; ci++ {
		hi := max(bounds[ci], len(keys)*(ci+1)/nch)
		for len(classes) > 1 && hi > 0 && hi < len(keys) && keys[hi].entry>>occBits == keys[hi-1].entry>>occBits {
			hi++
		}
		bounds[ci+1] = hi
	}
	owner := make([]int, len(p.texts))
	for ci := nch - 1; ci >= 0; ci-- { // the first chunk to need a slot owns it
		prev := skeleton.NoClass
		for _, k := range keys[bounds[ci]:bounds[ci+1]] {
			if c, _ := seg.at(col, k.entry); c != prev {
				prev = c
				for _, ch := range p.by[c] {
					owner[ch.slot] = ci
				}
			}
		}
	}
	return parallelFor(p.x.ctx, p.x.e.workers(), nch, func(ci int) error {
		r := scanRow{ci: ci, class: skeleton.NoClass, rs: chunkReaders{ci: ci, shared: shared, owner: owner, own: make([]*reader, len(shared))}}
		defer r.rs.close()
		for _, k := range keys[bounds[ci]:bounds[ci+1]] {
			c, occ := seg.at(col, k.entry)
			if c != r.class {
				r.class, r.chains = c, p.by[c]
			}
			r.ri, r.occ = k.row, occ
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// chunkReaders are one scan chunk's readers (see pathRes.scan).
type chunkReaders struct {
	ci     int
	shared []*reader // the evaluation's reader of each slot
	owner  []int     // the chunk that reads each slot through shared
	own    []*reader // this chunk's readers of the other slots, made on first use
}

func (rs chunkReaders) get(ch *chain) *reader {
	if rs.owner[ch.slot] == rs.ci {
		return rs.shared[ch.slot]
	}
	if rs.own[ch.slot] == nil {
		sh := rs.shared[ch.slot]
		rs.own[ch.slot] = sh.x.newReader(sh.class, sh.vec)
	}
	return rs.own[ch.slot]
}

func (rs chunkReaders) close() {
	for _, rd := range rs.own {
		if rd != nil {
			rd.Close()
		}
	}
}

// descendantElements returns all element classes strictly below c.
func (e *Engine) descendantElements(c skeleton.ClassID) []skeleton.ClassID {
	var out []skeleton.ClassID
	queue := []skeleton.ClassID{c}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, k := range e.Classes.Kids(cur) {
			if e.Classes.IsText(k) {
				continue
			}
			//vx:alloc once per '//*' resolution: an op resolves each source class once (pathRes)
			out = append(out, k)
			queue = append(queue, k)
		}
	}
	slices.Sort(out)
	return out
}

// chainCursors returns the shared per-class cursors of the class path
// (src, dst] — every class strictly below src down to dst, which must lie
// below src — for descending spans (ChildSpan) and ascending positions
// (ParentOf). Cursors are stateless, so sharing them is safe.
func (e *Engine) chainCursors(src, dst skeleton.ClassID) []*skeleton.Cursor {
	var curs []*skeleton.Cursor
	for c := dst; c != src; c = e.Classes.Parent(c) {
		if c == skeleton.NoClass {
			panic("core: chainCursors: dst not under src")
		}
		curs = append(curs, e.Classes.Cursor(c))
	}
	slices.Reverse(curs)
	return curs
}

// descendSpan maps a span of occurrences at the chain's source class down
// to the span at the chain's final class.
func descendSpan(curs []*skeleton.Cursor, start, count int64) (int64, int64) {
	for _, cur := range curs {
		if count == 0 {
			return 0, 0
		}
		start, count = cur.ChildSpan(start, count)
	}
	return start, count
}

// ascendPos maps one occurrence at the chain's final class up to the
// source-class occurrence owning it.
func ascendPos(curs []*skeleton.Cursor, pos int64) int64 {
	for i := len(curs) - 1; i >= 0; i-- {
		pos = curs[i].ParentOf(pos)
	}
	return pos
}

// textTarget extends an element class to its text child class, returning
// NoClass when the element has no text content anywhere.
func (e *Engine) textTarget(c skeleton.ClassID) skeleton.ClassID {
	if e.Classes.IsText(c) {
		return c
	}
	return e.Classes.Child(c, skeleton.TextStep)
}
