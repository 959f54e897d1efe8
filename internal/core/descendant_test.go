package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

func planOf(t testing.TB, src string) *qgraph.Plan {
	t.Helper()
	q, err := xq.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan
}

// TestDescendantProjectionCostFollowsMatches: a '//' projection costs the
// targets' occurrences and the matches, not the source's occurrences.
// With 20 sentences holding t and n holding none, the projection (the
// source stays live, so it pairs each source with its targets) expands no
// runs, and the evaluation allocates as much at n = 200 as at n = 2000.
func TestDescendantProjectionCostFollowsMatches(t *testing.T) {
	const src = `for $s in /r/s, $x in $s//t return $s, $x`
	allocs := map[int]float64{}
	for _, n := range []int{200, 2000} {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&b, "<s><u><t>v%d</t></u></s>", i)
		}
		b.WriteString(strings.Repeat("<s><u>w</u></s>", n))
		b.WriteString("</r>")
		syms := xmlmodel.NewSymbols()
		repo, err := vectorize.FromString(b.String(), syms)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{Workers: 1})
		plan := planOf(t, src)
		res, tr, err := eng.EvalTraced(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(resultXML(t, res), "<s>"); got != 20 {
			t.Fatalf("n=%d: %d results, want 20", n, got)
		}
		for _, op := range tr.Ops {
			if op.Kind == "proj" && op.Stats.RunsExpanded != 0 {
				t.Errorf("n=%d: %s expanded %d runs, want 0", n, op.Op, op.Stats.RunsExpanded)
			}
		}
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := eng.Eval(context.Background(), plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[200] != allocs[2000] {
		t.Errorf("allocations per eval grow with the sentences that hold no t: %v at n=200, %v at n=2000", allocs[200], allocs[2000])
	}
}

// TestDescendantBindingIsOneSegment: a '//' binding over many target
// classes is one class-set column — the table's single segment tags each
// row with its class — and a join over it reads each vector extent once
// (vector.pages_scanned), however many classes the column spans.
func TestDescendantBindingIsOneSegment(t *testing.T) {
	for _, classes := range []int{10, 500} {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < 600; i++ {
			k := i % classes
			fmt.Fprintf(&b, "<s><a%d><t>v%d</t></a%d><t>v%d</t></s>", k, i%7, k, i%5)
		}
		b.WriteString("</r>")
		fs := storage.NewMemFS()
		repo, err := vectorize.Create(strings.NewReader(b.String()), "repo", vectorize.Options{PoolPages: 64, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewRepoEngine(repo, Options{Workers: 1})

		x := newEvalContext(eng, context.Background())
		if err := x.run(planOf(t, `for $s in /r/s, $x in $s//t return $s, $x`)); err != nil {
			t.Fatal(err)
		}
		tab, col, err := x.tableOf("$x")
		if err != nil {
			t.Fatal(err)
		}
		if tab.Classes[col] != skeleton.NoClass || len(tab.classesOf(col)) != classes+1 {
			t.Errorf("%d classes: column classes %v over %d classes, want a class-set column over %d", classes, tab.Classes, len(tab.classesOf(col)), classes+1)
		}
		if len(tab.Rows) != 1200 {
			t.Errorf("%d classes: %d rows after $s//t, want one per (sentence, target class)", classes, len(tab.Rows))
		}
		x.closeReaders()

		set := repo.Vectors.(*vector.DiskSet)
		extents := 0
		for _, name := range set.Names() {
			ext, _ := set.Extents(name)
			extents += len(ext)
		}
		scanned := obs.GetCounter("vector.pages_scanned")
		before := scanned.Load()
		res, err := eng.Eval(context.Background(), planOf(t, `for $s in /r/s, $x in $s//t, $y in $s//t where $x = $y return $s`))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(resultXML(t, res), "<s>"); got < 600 {
			t.Errorf("%d classes: %d results, want every sentence at least once", classes, got)
		}
		if got := scanned.Load() - before; got > int64(extents) {
			t.Errorf("%d classes: the join decoded %d extents, the repository has %d", classes, got, extents)
		}
		repo.Close()
	}
}

// classSetXML nests a, b and c at several depths, so '//' and '//*'
// steps reach many classes.
const classSetXML = `<doc><a><b>x</b><c>y</c><a><b>y</b><c><b>x</b></c></a></a>` +
	`<b><a><c>x</c><b>10</b></a><a><b>x</b></a></b>` +
	`<c><c><a><b>y</b><c>x</c></a></c></c><a><a><a><b>x</b><c>x</c></a></a></a></doc>`

// TestClassSetColumnsMatchDOM runs every reduce step over class-set
// columns — a '//*' binding; projections whose source or target is
// class-set, with the source live, dying or aliased and the target live
// or dead; scanned and indexed selections; existence tests; joins within
// and across tables — and compares each result with the DOM interpreter
// as a multiset, at Workers 1 and 4.
func TestClassSetColumnsMatchDOM(t *testing.T) {
	queries := []string{
		`for $x in //* where $x/c = 'x' return $x`,
		`for $x in /doc//a, $y in $x//b return $x`,
		`for $x in /doc//a, $y in $x//b return $y`,
		`for $x in /doc//*, $y in $x/b return $x/c, $y`,
		`for $x in /doc//a[b] return $x`,
		`for $x in /doc//a[.//c = 'x'] return $x/b`,
		`for $x in /doc//a, $y in $x//c where $x/b = $y return $x, $y`,
		`for $x in /doc//a, $y in /doc//b where $x/c = $y return $x, $y`,
		`for $x in /doc//a, $y in $x, $z in $y//b return $y, $z`,
	}
	syms := xmlmodel.NewSymbols()
	tree, err := xmlmodel.ParseString(classSetXML, syms)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := vectorize.FromTree(tree, syms)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range queries {
		want, err := domResultXML(t, tree, syms, src)
		if err != nil {
			t.Fatalf("%s: dom: %v", src, err)
		}
		for _, workers := range []int{1, 4} {
			for _, indexed := range []bool{false, true} {
				eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{Workers: workers})
				if indexed {
					for _, tc := range repo.Classes.TextClasses() {
						if _, err := eng.BuildVectorIndex(repo.Classes.VectorName(tc)); err != nil {
							t.Fatal(err)
						}
					}
				}
				res, err := eng.Eval(context.Background(), planOf(t, src))
				if err != nil {
					t.Fatalf("%s: eval: %v", src, err)
				}
				if got := resultXML(t, res); canonicalize(t, got, syms) != canonicalize(t, want, syms) {
					t.Errorf("%s (workers %d, indexed %v):\nengine %s\ndom    %s", src, workers, indexed, got, want)
				}
			}
		}
	}
}
