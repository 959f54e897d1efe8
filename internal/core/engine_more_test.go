package core

import (
	"context"
	"strings"
	"testing"

	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// TestChainedJoins: two equality edges across three collections.
func TestChainedJoins(t *testing.T) {
	doc := `<db>
<a><k>1</k><v>A1</v></a><a><k>2</k><v>A2</v></a>
<b><k>1</k><j>x</j></b><b><k>2</k><j>y</j></b><b><k>3</k><j>x</j></b>
<c><j>x</j><out>C1</out></c><c><j>z</j><out>C2</out></c>
</db>`
	res, _ := evalOn(t, doc,
		`for $a in /db/a, $b in /db/b, $c in /db/c
		 where $a/k = $b/k and $b/j = $c/j
		 return $a/v, $c/out`, Options{})
	got := resultXML(t, res)
	// a1-b1(j=x)-c1; a2-b2(j=y)-none. So one pair.
	want := "<result><v>A1</v><out>C1</out></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

// TestJoinOutputBothSides: a cross-table join whose both variables are
// output columns, checking pairing order (left-major).
func TestJoinOutputBothSides(t *testing.T) {
	doc := `<db>
<l><k>x</k><n>L1</n></l><l><k>y</k><n>L2</n></l>
<r><k>y</k><m>R1</m></r><r><k>x</k><m>R2</m></r><r><k>x</k><m>R3</m></r>
</db>`
	res, _ := evalOn(t, doc,
		`for $l in /db/l, $r in /db/r where $l/k = $r/k return $l/n, $r/m`, Options{})
	got := resultXML(t, res)
	want := "<result><n>L1</n><m>R2</m><n>L1</n><m>R3</m><n>L2</n><m>R1</m></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestNeCondition(t *testing.T) {
	doc := `<db><p><a>1</a><b>1</b></p><p><a>1</a><b>2</b></p></db>`
	res, _ := evalOn(t, doc,
		`for $p in /db/p where $p/a != $p/b return $p/b`, Options{})
	if got := resultXML(t, res); got != "<result><b>2</b></result>" {
		t.Errorf("result = %s", got)
	}
}

// TestElementWithoutTextInComparison: comparing an element that has no
// text child is existentially false, never an error.
func TestElementWithoutTextInComparison(t *testing.T) {
	doc := `<db><p><a><deep>1</deep></a><t>T1</t></p><p><a>1</a><t>T2</t></p></db>`
	res, _ := evalOn(t, doc,
		`for $p in /db/p where $p/a = '1' return $p/t`, Options{})
	// First p's <a> has no direct text ('1' is under deep): not matched.
	if got := resultXML(t, res); got != "<result><t>T2</t></result>" {
		t.Errorf("result = %s", got)
	}
}

func TestDeepPathShortcut(t *testing.T) {
	doc := `<a><b><c><d><e>deep</e></d></c></b><b><c><d><e>deeper</e></d></c></b></a>`
	res, st := evalOn(t, doc, `for $x in /a/b/c/d/e return $x`, Options{})
	got := resultXML(t, res)
	if got != "<result><e>deep</e><e>deeper</e></result>" {
		t.Errorf("result = %s", got)
	}
	// The whole path is one bind: one run-compressed row.
	if st.RowsProduced > 1 {
		t.Errorf("rows = %d, want 1", st.RowsProduced)
	}
}

func TestQualifierWithComparisonOps(t *testing.T) {
	doc := `<t><r><p>10</p><v>a</v></r><r><p>50</p><v>b</v></r></t>`
	for _, tc := range []struct{ q, want string }{
		{`/t/r[p >= 40]/v`, "<result><v>b</v></result>"},
		{`/t/r[p < 40]/v`, "<result><v>a</v></result>"},
		{`/t/r[p != 10]/v`, "<result><v>b</v></result>"},
	} {
		res, _ := evalOn(t, doc, tc.q, Options{})
		if got := resultXML(t, res); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.q, got, tc.want)
		}
	}
}

// TestSharedSubtreeCopies: result subtrees that are identical share one
// skeleton node (stepwise compression, §4.1).
func TestSharedSubtreeCopies(t *testing.T) {
	doc := `<db>` + strings.Repeat(`<row><a>same</a></row>`, 50) + `</db>`
	res, _ := evalOn(t, doc, `for $r in /db/row return $r`, Options{})
	// 50 identical <row> copies: skeleton has #, a, row, result = 4 nodes.
	if res.Skel.NumNodes() != 4 {
		t.Errorf("result skeleton nodes = %d, want 4", res.Skel.NumNodes())
	}
	if len(res.Skel.Edges(res.Skel.Root)) != 1 || res.Skel.Edges(res.Skel.Root)[0].Count != 50 {
		t.Errorf("root edges = %+v", res.Skel.Edges(res.Skel.Root))
	}
}

// TestDescendantValueSelection: a selection through the descendant axis
// unions matches over all reachable classes.
func TestDescendantValueSelection(t *testing.T) {
	doc := `<s>
<g><x><nn>hit</nn></x><t>G1</t></g>
<g><nn>hit</nn><t>G2</t></g>
<g><nn>miss</nn><t>G3</t></g>
</s>`
	res, _ := evalOn(t, doc, `for $g in /s/g where $g//nn = 'hit' return $g/t`, Options{})
	got := resultXML(t, res)
	if got != "<result><t>G1</t><t>G2</t></result>" {
		t.Errorf("result = %s", got)
	}
}

// TestMultipleReturnsOfSameVar: %1 and %2 may reference the same variable.
func TestMultipleReturnsOfSameVar(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'AW' return $b/title, $b/title`, Options{})
	got := resultXML(t, res)
	if strings.Count(got, "<title>AXML</title>") != 2 {
		t.Errorf("result = %s", got)
	}
}

func TestNestedTemplates(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'AW'
		 return <r><inner><deep>{$b/author}</deep></inner></r>`, Options{})
	got := resultXML(t, res)
	want := "<result><r><inner><deep><author>SB</author></deep></inner></r></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
	// The output vector name reflects the full template path.
	names := res.Vectors.Names()
	if len(names) != 1 || names[0] != "/result/r/inner/deep/author" {
		t.Errorf("vectors = %v", names)
	}
}

// TestSelfJoinSameVarPaths: comparing two different paths of one var.
func TestSelfJoinSameVarPaths(t *testing.T) {
	doc := `<db>
<p><first>ann</first><last>ann</last><id>1</id></p>
<p><first>bob</first><last>smith</last><id>2</id></p>
</db>`
	res, _ := evalOn(t, doc,
		`for $p in /db/p where $p/first = $p/last return $p/id`, Options{})
	if got := resultXML(t, res); got != "<result><id>1</id></result>" {
		t.Errorf("result = %s", got)
	}
}

// TestFilterOnlyJoinSameTableUnchanged: the ablation only affects
// cross-table joins; same-table filtering is identical.
func TestFilterOnlyJoinSameTableUnchanged(t *testing.T) {
	doc := `<db><p><a>x</a><b>x</b><t>P1</t></p><p><a>x</a><b>y</b><t>P2</t></p></db>`
	q := `for $p in /db/p where $p/a = $p/b return $p/t`
	r1, _ := evalOn(t, doc, q, Options{})
	r2, _ := evalOn(t, doc, q, Options{FilterOnlyJoins: true})
	if resultXML(t, r1) != resultXML(t, r2) {
		t.Errorf("same-table join differs under filter-only: %s vs %s", resultXML(t, r1), resultXML(t, r2))
	}
}

// TestLargeRunSelection: a selection over a single run row splits into
// the right sub-runs.
func TestLargeRunSelection(t *testing.T) {
	var b strings.Builder
	b.WriteString("<t>")
	for i := 0; i < 1000; i++ {
		v := "n"
		if i%100 == 7 { // positions 7, 107, ..., 907
			v = "y"
		}
		b.WriteString("<r><f>" + v + "</f><g>G</g></r>")
	}
	b.WriteString("</t>")
	res, st := evalOn(t, b.String(), `for $r in /t/r where $r/f = 'y' return $r/g`, Options{})
	got := resultXML(t, res)
	if strings.Count(got, "<g>G</g>") != 10 {
		t.Errorf("matches = %d", strings.Count(got, "<g>G</g>"))
	}
	if st.Tuples != 10 {
		t.Errorf("tuples = %d", st.Tuples)
	}
}

// TestResultIsQueryable: the vectorized output of one query can be
// queried again (closure under the representation).
func TestResultIsQueryable(t *testing.T) {
	res1, _ := evalOn(t, bibXML, `for $b in /bib/book return $b`, Options{})
	// Query the result repository directly.
	q := xq.MustParse(`for $t in /result/book/title where $t = 'XML' return $t`)
	plan, err := qgraph.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(res1.Skel, res1.Classes, res1.Vectors, res1.Syms, Options{})
	res2, err := eng.Eval(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	vectorize.ReconstructXML(res2.Skel, res2.Classes, res2.Vectors, res2.Syms, &out)
	if out.String() != "<result><title>XML</title></result>" {
		t.Errorf("result = %s", out.String())
	}
}

// TestEngineReuse: one engine can evaluate several plans sequentially.
func TestEngineReuse(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(bibXML, syms)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	for _, src := range []string{
		`for $b in /bib/book return $b/title`,
		`for $a in /bib/article return $a/title`,
	} {
		plan, err := qgraph.Build(xq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Eval(context.Background(), plan); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}

// TestLetClauseEndToEnd: let bindings evaluate as sequence aliases.
func TestLetClauseEndToEnd(t *testing.T) {
	res, _ := evalOn(t, bibXML, `for $b in /bib/book,
	    let $pub := $b/publisher
	where $pub = 'SBP'
	return $pub, $b/title`, Options{})
	got := resultXML(t, res)
	want := "<result><publisher>SBP</publisher><title>Curation</title>" +
		"<publisher>SBP</publisher><title>XML</title></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}
