package skeleton_test

import (
	"io"
	"strings"
	"testing"

	"vxml/internal/datagen"
	"vxml/internal/skeleton"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// checkCounts holds every class's discovered count to the one its run map
// implies: the occurrences the parent class's occurrences fan out to.
func checkCounts(t *testing.T, label string, cls *skeleton.Classes) {
	t.Helper()
	if got := cls.Count(cls.Root()); got != 1 {
		t.Errorf("%s: root count = %d, want 1", label, got)
	}
	for id := skeleton.ClassID(1); int(id) < cls.NumClasses(); id++ {
		if got, want := cls.Count(id), cls.Runs(id).TotalChildren(); got != want {
			t.Errorf("%s: class %s count = %d, run map covers %d", label, cls.Path(id), got, want)
		}
	}
}

// TestClassCountsMatchRunMaps: the counts NewClasses records while
// discovering classes equal the run maps' totals, on the four generated
// datasets and on skeletons whose counts only the DAG makes small.
func TestClassCountsMatchRunMaps(t *testing.T) {
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
		repo, err := vectorize.FromString(doc.String(), xmlmodel.NewSymbols())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCounts(t, name, repo.Classes)
	}

	// The doubling chain of TestExponentialCompression: 2^d occurrences
	// at depth d from one node per level.
	syms := xmlmodel.NewSymbols()
	a := syms.Intern("a")
	b := skeleton.NewBuilder()
	cur := b.Make(a, nil)
	for i := 0; i < 50; i++ {
		cur = b.Make(a, []skeleton.Edge{{Child: cur, Count: 2}})
	}
	checkCounts(t, "doubling chain", skeleton.NewClasses(b.Finish(cur), syms))

	// One counted edge standing for a million identical children, and a
	// node shared by two parents with different counts.
	b = skeleton.NewBuilder()
	title := b.Make(syms.Intern("title"), []skeleton.Edge{{Child: b.Text(), Count: 1}})
	book := b.Make(syms.Intern("book"), []skeleton.Edge{{Child: title, Count: 3}})
	root := b.Make(syms.Intern("result"), []skeleton.Edge{
		{Child: title, Count: 1_000_000},
		{Child: book, Count: 7},
		{Child: b.Make(syms.Intern("shelf"), []skeleton.Edge{{Child: book, Count: 5}}), Count: 2},
	})
	cls := skeleton.NewClasses(b.Finish(root), syms)
	checkCounts(t, "counted edges", cls)
	if got := cls.Count(cls.Resolve("/result/shelf/book/title/#")); got != 2*5*3 {
		t.Errorf("shelved titles = %d, want 30", got)
	}
}
