package core

import (
	"fmt"
	"sort"

	"vxml/internal/skeleton"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// A chain is the unique class-trie path from a source class (exclusive)
// down to a target class (inclusive). Steps with the descendant axis or
// wildcard can resolve to several target classes; each gets its own chain.

// resolveTargets returns the set of classes reachable from src via the
// steps, sorted by class id. An empty step list resolves to {src}.
// Results are memoized per (source class, path): descendant-axis queries
// re-resolve the same pair once per table segment, and concurrent
// evaluations share the memo under the engine's memo lock.
func (e *Engine) resolveTargets(src skeleton.ClassID, steps []xq.Step) []skeleton.ClassID {
	out, _ := e.resolveTargetsHit(src, steps)
	return out
}

// resolveTargetsHit additionally reports whether the memo answered.
func (e *Engine) resolveTargetsHit(src skeleton.ClassID, steps []xq.Step) ([]skeleton.ClassID, bool) {
	key := targetKey(src, steps)
	e.memoMu.Lock()
	out, ok := e.targetMemo[key]
	e.memoMu.Unlock()
	if ok {
		return out, true
	}
	out = e.resolveTargetsUncached(src, steps)
	e.memoMu.Lock()
	if e.targetMemo == nil {
		e.targetMemo = make(map[string][]skeleton.ClassID)
	}
	e.targetMemo[key] = out
	e.memoMu.Unlock()
	return out, false
}

func targetKey(src skeleton.ClassID, steps []xq.Step) string {
	return fmt.Sprintf("%d|%s", src, xq.Path{Steps: steps})
}

func (e *Engine) resolveTargetsUncached(src skeleton.ClassID, steps []xq.Step) []skeleton.ClassID {
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
			//vx:alloc once per '//*' resolution: resolveTargets memoizes per (class, path), opBind and CheckPlan call it once per query
			out = append(out, k)
			queue = append(queue, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chainBetween returns the class path (src, dst] — every class strictly
// below src down to dst. dst must be a (transitive) child of src.
func (e *Engine) chainBetween(src, dst skeleton.ClassID) []skeleton.ClassID {
	var rev []skeleton.ClassID
	for c := dst; c != src; c = e.Classes.Parent(c) {
		rev = append(rev, c)
		if c == skeleton.NoClass {
			panic("core: chainBetween: dst not under src")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// chainCursors returns the shared per-class cursors along a chain, for
// descending spans (ChildSpan) and ascending positions (ParentOf).
// Cursors are stateless, so sharing them across operations is safe.
func (e *Engine) chainCursors(chain []skeleton.ClassID) []*skeleton.Cursor {
	curs := make([]*skeleton.Cursor, len(chain))
	for i, c := range chain {
		curs[i] = e.Classes.Cursor(c)
	}
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
