package skeleton

import (
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vxml/internal/datagen"
	"vxml/internal/testgen"
	"vxml/internal/xmlmodel"
)

// fullNodeRuns derives a class's node runs the long way, from the root
// down through every ancestor's occurrences, with no shortcut at any level.
func fullNodeRuns(c *Classes, id ClassID, memo map[ClassID][]NodeRun) []NodeRun {
	if nr, ok := memo[id]; ok {
		return nr
	}
	nr := []NodeRun{{Count: 1, Node: c.skel.Root}}
	if p := c.Parent(id); p != NoClass {
		nr = deriveNodeRuns(c.skel, fullNodeRuns(c, p, memo), c.Tag(id))
	}
	memo[id] = nr
	return nr
}

// checkUniform holds every class's RunMap and NodeRuns to the full
// derivation, and returns how many run maps the uniform-fanout rule
// answered.
func checkUniform(t *testing.T, label string, s *Skeleton, syms *xmlmodel.Symbols) (uniform int) {
	t.Helper()
	c := NewClasses(s, syms)
	memo := make(map[ClassID][]NodeRun)
	for id := ClassID(0); int(id) < c.NumClasses(); id++ {
		if got, want := c.NodeRuns(id), fullNodeRuns(c, id, memo); !slices.Equal(got, want) {
			t.Fatalf("%s: NodeRuns(%s) = %v, full derivation %v", label, c.Path(id), got, want)
		}
		p := c.Parent(id)
		if p == NoClass {
			continue
		}
		if _, ok := c.uniformFanout(p, c.Tag(id)); ok {
			uniform++
		}
		if got, want := c.Runs(id), deriveRuns(c.skel, fullNodeRuns(c, p, memo), c.Tag(id)); !slices.Equal(got, want) {
			t.Fatalf("%s: Runs(%s) = %v, full derivation %v", label, c.Path(id), got, want)
		}
	}
	return uniform
}

// TestUniformShortcutMatchesDerivation: the run maps and node runs read off
// a class's DAG nodes equal those derived from the parent's occurrences,
// on random documents of every differential-suite slice and on the four
// generated datasets.
func TestUniformShortcutMatchesDerivation(t *testing.T) {
	configs := map[string]testgen.DocConfig{
		"default":    testgen.DefaultDocConfig(),
		"wide":       testgen.WideDocConfig(),
		"descendant": testgen.DescendantDocConfig(),
		"cross":      testgen.CrossDocConfig(),
	}
	for name, cfg := range configs {
		uniform := 0
		for seed := int64(1); seed <= 150; seed++ {
			syms := xmlmodel.NewSymbols()
			root := testgen.Doc(rand.New(rand.NewSource(seed)), cfg, syms)
			uniform += checkUniform(t, name, FromTree(root, NewBuilder()), syms)
		}
		if uniform == 0 {
			t.Errorf("%s: no run map took the uniform rule", name)
		}
	}

	docs := map[string]interface{ Generate(io.Writer) error }{
		"xmark":     datagen.XMark{Scale: 0.02, Seed: 1},
		"treebank":  datagen.TreeBank{Sentences: 200, Files: 3, Seed: 1},
		"skyserver": datagen.SkyServer{Rows: 300, Cols: 12, Seed: 1},
		"medline":   datagen.MedLine{Citations: 200, Seed: 1},
	}
	for name, gen := range docs {
		var doc strings.Builder
		if err := gen.Generate(&doc); err != nil {
			t.Fatal(err)
		}
		syms := xmlmodel.NewSymbols()
		root, err := xmlmodel.ParseString(doc.String(), syms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if checkUniform(t, name, FromTree(root, NewBuilder()), syms) == 0 {
			t.Errorf("%s: no run map took the uniform rule", name)
		}
	}
}

// TestUniformCursorLeavesParentUnderived: a cursor below an XMark person
// comes from person's DAG nodes, so person's node runs (one per distinct
// person subtree) are never derived.
func TestUniformCursorLeavesParentUnderived(t *testing.T) {
	var doc strings.Builder
	if err := (datagen.XMark{Scale: 0.02, Seed: 1}).Generate(&doc); err != nil {
		t.Fatal(err)
	}
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(doc.String(), syms)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClasses(FromTree(root, NewBuilder()), syms)
	person, name := c.Resolve("/site/people/person"), c.Resolve("/site/people/person/name")
	if person == NoClass || name == NoClass {
		t.Fatal("no /site/people/person/name class")
	}
	if n := len(c.nodesOf(person)); n < 2 {
		t.Fatalf("person has %d DAG nodes; the test needs an irregular parent", n)
	}
	cur := c.Cursor(name)
	if got, want := cur.Prefix(c.Count(person)), c.Count(name); got != want {
		t.Fatalf("names under all persons = %d, want %d", got, want)
	}
	if c.memos[person].nodeRuns != nil {
		t.Fatalf("Cursor(person/name) derived person's %d node runs", len(c.memos[person].nodeRuns))
	}
}
