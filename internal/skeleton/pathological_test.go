package skeleton

import (
	"testing"

	"vxml/internal/xmlmodel"
)

// TestExponentialCompression is the paper's §2.2 remark made concrete:
// "It is easy to construct pathological cases in which the compression is
// exponential." A chain of 50 doubling levels — each node has two edges
// to the same child — represents a tree of 2^51-1 nodes in a 51-node DAG,
// and the positional machinery (counts, run maps) keeps working on it
// without any expansion.
func TestExponentialCompression(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	a := syms.Intern("a")
	b := NewBuilder()
	cur := b.Make(a, nil)
	const levels = 50
	for i := 0; i < levels; i++ {
		cur = b.Make(a, []Edge{{Child: cur, Count: 2}})
	}
	skel := b.Finish(cur)
	if got := skel.NumNodes(); got != levels+1 {
		t.Fatalf("NumNodes = %d, want %d", got, levels+1)
	}
	// ExpandedSize = 2^(levels+1) - 1.
	want := int64(1)<<(levels+1) - 1
	if got := skel.ExpandedSize(); got != want {
		t.Errorf("ExpandedSize = %d, want %d", got, want)
	}

	// Class counts at depth d are 2^d, computed in O(skeleton) time.
	cls := NewClasses(skel, syms)
	cur2 := cls.Root()
	for d := 1; d <= levels; d++ {
		cur2 = cls.Child(cur2, a)
		if cur2 == NoClass {
			t.Fatalf("depth %d: class missing", d)
		}
		if got := cls.Count(cur2); got != int64(1)<<d {
			t.Fatalf("depth %d count = %d, want %d", d, got, int64(1)<<d)
		}
	}
	// The run map at the deepest level is still one run.
	rm := cls.Runs(cur2)
	if len(rm) != 1 || rm[0].Fanout != 2 {
		t.Errorf("deepest runs = %+v", rm)
	}
	// Positional queries at astronomic occurrence indices work directly.
	c := NewCursor(rm)
	lastParent := int64(1)<<(levels-1) - 1
	if got := c.Prefix(lastParent); got != 2*lastParent {
		t.Errorf("Prefix(%d) = %d", lastParent, got)
	}
	if got := c.ParentOf(int64(1)<<levels - 1); got != lastParent {
		t.Errorf("ParentOf(last) = %d, want %d", got, lastParent)
	}
}

// TestProp32OutputSkeletonBound: the result skeleton of a select/project
// stays O(|S||Q|) — constant here — no matter how many tuples it covers
// (Prop. 3.2: |S'| ≤ O(|S||Q|), #V' ≤ #V).
func TestProp32OutputSkeletonBound(t *testing.T) {
	// Covered end-to-end in core's tests (TestQ0Result: 8 result titles,
	// 3 skeleton nodes; TestSharedSubtreeCopies: 50 copies, 4 nodes); at
	// the skeleton level, verify that Builder.Make of n identical children
	// stays one node + one counted edge for any n.
	syms := xmlmodel.NewSymbols()
	b := NewBuilder()
	title := b.Make(syms.Intern("title"), []Edge{{Child: b.Text(), Count: 1}})
	edges := make([]Edge, 0, 1)
	for i := 0; i < 1_000_000; i++ {
		edges = append(mergeRuns(edges), Edge{Child: title, Count: 1})
	}
	root := b.Make(syms.Intern("result"), edges)
	skel := b.Finish(root)
	if skel.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", skel.NumNodes())
	}
	if edges := skel.Edges(root); len(edges) != 1 || edges[0].Count != 1_000_000 {
		t.Errorf("root edges = %+v", edges)
	}
}
