package core

import (
	"context"
	"strings"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

const bibXML = `<bib>
  <book><publisher>SBP</publisher><author>RH</author><title>Curation</title></book>
  <book><publisher>SBP</publisher><author>RH</author><title>XML</title></book>
  <book><publisher>AW</publisher><author>SB</author><title>AXML</title></book>
  <article><author>BC</author><title>P2P</title></article>
  <article><author>RH</author><author>BC</author><title>XStore</title></article>
  <article><author>DD</author><author>RH</author><title>XPath</title></article>
</bib>`

// evalOn vectorizes doc, parses and plans src, and evaluates it.
func evalOn(t testing.TB, doc, src string, opts Options) (*vectorize.MemRepository, obs.TaskCounters) {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc, syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	q, err := xq.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, opts)
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v\nplan:\n%s", err, plan)
	}
	return res, tr.Total
}

func resultXML(t testing.TB, res *vectorize.MemRepository) string {
	t.Helper()
	var b strings.Builder
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b); err != nil {
		t.Fatalf("reconstruct result: %v", err)
	}
	return b.String()
}

const q0 = `<result>
for $d in doc("bib.xml")/bib,
    $b in $d/book,
    $a in $d/article
where $b/author = $a/author and
      $b/publisher = 'SBP'
return $b/title, $a/title
</result>`

// TestQ0Result reproduces the paper's Fig. 3(a)/(b): the query result tree
// and its vectorized representation.
func TestQ0Result(t *testing.T) {
	res, st := evalOn(t, bibXML, q0, Options{})
	got := resultXML(t, res)
	want := "<result>" +
		"<title>Curation</title><title>XStore</title>" +
		"<title>Curation</title><title>XPath</title>" +
		"<title>XML</title><title>XStore</title>" +
		"<title>XML</title><title>XPath</title>" +
		"</result>"
	if got != want {
		t.Errorf("result =\n%s\nwant\n%s", got, want)
	}
	// Fig. 3(b): a single data vector /result/title with 8 values, and a
	// skeleton with a counted edge (the 8 title children share one node).
	names := res.Vectors.Names()
	if len(names) != 1 || names[0] != "/result/title" {
		t.Fatalf("vectors = %v", names)
	}
	v, _ := res.Vectors.Vector("/result/title")
	vals, _ := vector.All(v)
	if strings.Join(vals, ",") != "Curation,XStore,Curation,XPath,XML,XStore,XML,XPath" {
		t.Errorf("vector = %v", vals)
	}
	// Output skeleton: result, title, '#' = 3 unique nodes; result->title
	// edge has count 8.
	if res.Skel.NumNodes() != 3 {
		t.Errorf("result skeleton nodes = %d, want 3", res.Skel.NumNodes())
	}
	root := res.Skel.Edges(res.Skel.Root)
	if len(root) != 1 || root[0].Count != 8 {
		t.Errorf("root edges = %+v", root)
	}
	if st.Tuples != 4 {
		t.Errorf("tuples = %d, want 4", st.Tuples)
	}
}

// TestQ0LazyVectors: Q0 must not touch the article/title vectors during
// reduction (only publisher and the two author vectors), plus the two
// title vectors during result construction. /bib/article/title is touched
// for output; nothing else.
func TestQ0VectorTouch(t *testing.T) {
	_, st := evalOn(t, bibXML, q0, Options{})
	// publisher, book/author, article/author, book/title, article/title =
	// all 5 here; the point is exercised properly in the SkyServer test
	// below where most columns stay untouched.
	if st.VectorsOpened > 5 {
		t.Errorf("vectors opened = %d", st.VectorsOpened)
	}
}

func TestSelectionOnly(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`, Options{})
	got := resultXML(t, res)
	want := "<result><title>Curation</title><title>XML</title></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestQualifierSelection(t *testing.T) {
	res, _ := evalOn(t, bibXML, `/bib/book[publisher='AW']`, Options{})
	got := resultXML(t, res)
	want := "<result><book><publisher>AW</publisher><author>SB</author><title>AXML</title></book></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestExistenceQualifier(t *testing.T) {
	doc := `<r><p><q>x</q></p><p><z>y</z></p><p><q>w</q></p></r>`
	res, _ := evalOn(t, doc, `/r/p[q]`, Options{})
	got := resultXML(t, res)
	want := "<result><p><q>x</q></p><p><q>w</q></p></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestSubtreeReturn(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'AW' return $b`, Options{})
	got := resultXML(t, res)
	want := "<result><book><publisher>AW</publisher><author>SB</author><title>AXML</title></book></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestComparisonSelection(t *testing.T) {
	doc := `<t><r><p>10</p><v>a</v></r><r><p>40</p><v>b</v></r><r><p>55</p><v>c</v></r></t>`
	res, _ := evalOn(t, doc, `for $r in /t/r where $r/p >= 40 return $r/v`, Options{})
	got := resultXML(t, res)
	want := "<result><v>b</v><v>c</v></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
	// Numeric, not lexicographic: "9" < "40" numerically.
	doc2 := `<t><r><p>9</p><v>a</v></r><r><p>100</p><v>b</v></r></t>`
	res2, _ := evalOn(t, doc2, `for $r in /t/r where $r/p > 40 return $r/v`, Options{})
	if got := resultXML(t, res2); got != "<result><v>b</v></result>" {
		t.Errorf("numeric result = %s", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	doc := `<s><a><nn>x</nn></a><b><c><nn>y</nn></c></b><nn>z</nn></s>`
	res, _ := evalOn(t, doc, `for $n in /s//nn return $n`, Options{})
	got := resultXML(t, res)
	// Class order (not document order across classes) — all three appear.
	for _, want := range []string{"<nn>x</nn>", "<nn>y</nn>", "<nn>z</nn>"} {
		if !strings.Contains(got, want) {
			t.Errorf("result %s missing %s", got, want)
		}
	}
	if strings.Count(got, "<nn>") != 3 {
		t.Errorf("result = %s", got)
	}
}

func TestWildcardStep(t *testing.T) {
	doc := `<s><a><t>1</t></a><b><t>2</t></b></s>`
	res, _ := evalOn(t, doc, `for $x in /s/*/t return $x`, Options{})
	got := resultXML(t, res)
	if strings.Count(got, "<t>") != 2 {
		t.Errorf("result = %s", got)
	}
}

// TestVariableToVariableJoin is the TQ2 shape: join two descendant
// variables on their text content, within the same tree.
func TestVariableToVariableJoin(t *testing.T) {
	doc := `<root>
<s><nn>run</nn><vb>run</vb></s>
<s><nn>walk</nn><vb>fly</vb></s>
<s><nn>jump</nn><nn>swim</nn><vb>swim</vb></s>
</root>`
	res, _ := evalOn(t, doc,
		`for $s in /root/s, $nn in $s/nn, $vb in $s/vb where $nn = $vb return $s/nn`, Options{})
	got := resultXML(t, res)
	// s1 matches (run=run): emits its nn (run). s3 matches via swim: the
	// tuple space is ($s,$nn,$vb) pairs satisfying nn=vb: for s3 only
	// (swim,swim) matches -> one tuple -> returns $s/nn = jump,swim? No:
	// return $s/nn returns ALL nn under $s for each matching tuple.
	want := "<result><nn>run</nn><nn>jump</nn><nn>swim</nn></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

// TestCrossTableJoin joins two independently bound variables (MQ2 shape).
func TestCrossTableJoin(t *testing.T) {
	doc := `<db>
<cite><pmid>1</pmid><mid>M1</mid></cite>
<cite><pmid>2</pmid><mid>M2</mid></cite>
<cite><pmid>3</pmid><mid>M3</mid></cite>
<ref><pmid>2</pmid></ref>
<ref><pmid>3</pmid></ref>
<ref><pmid>9</pmid></ref>
</db>`
	res, _ := evalOn(t, doc,
		`for $x in /db/cite, $y in /db/ref where $x/pmid = $y/pmid return $x/mid`, Options{})
	got := resultXML(t, res)
	want := "<result><mid>M2</mid><mid>M3</mid></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

// TestJoinPairwiseSemantics: value matches must pair, not cross-filter.
// b1 shares an author only with a1, b2 only with a2: the result must not
// contain (b1,a2) or (b2,a1).
func TestJoinPairwiseSemantics(t *testing.T) {
	doc := `<bib>
<book><author>X</author><title>BX</title></book>
<book><author>Y</author><title>BY</title></book>
<article><author>X</author><title>AX</title></article>
<article><author>Y</author><title>AY</title></article>
</bib>`
	res, _ := evalOn(t, doc,
		`for $b in /bib/book, $a in /bib/article where $b/author = $a/author return $b/title, $a/title`, Options{})
	got := resultXML(t, res)
	want := "<result><title>BX</title><title>AX</title><title>BY</title><title>AY</title></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
	// The filter-only ablation over-produces: 4 pairs instead of 2.
	res2, _ := evalOn(t, doc,
		`for $b in /bib/book, $a in /bib/article where $b/author = $a/author return $b/title, $a/title`,
		Options{FilterOnlyJoins: true})
	got2 := resultXML(t, res2)
	if strings.Count(got2, "<title>") != 8 {
		t.Errorf("filter-only result = %s (want 4 pairs = 8 titles)", got2)
	}
}

// TestDuplicateSharedValuesDontMultiply: a pair sharing two authors
// appears once (the condition is a predicate).
func TestDuplicateSharedValuesDontMultiply(t *testing.T) {
	doc := `<bib>
<book><author>X</author><author>Y</author><title>B</title></book>
<article><author>X</author><author>Y</author><title>A</title></article>
</bib>`
	res, _ := evalOn(t, doc,
		`for $b in /bib/book, $a in /bib/article where $b/author = $a/author return $b/title`, Options{})
	got := resultXML(t, res)
	if got != "<result><title>B</title></result>" {
		t.Errorf("result = %s", got)
	}
}

// TestUnusedBindingMultiplies: for-bindings multiply output per XQuery
// nested-loop semantics even when the variable is unused.
func TestUnusedBindingMultiplies(t *testing.T) {
	doc := `<r><x><u>1</u><u>2</u><u>3</u><t>T</t></x><x><t>S</t></x></r>`
	res, _ := evalOn(t, doc, `for $x in /r/x, $u in $x/u return $x/t`, Options{})
	got := resultXML(t, res)
	// First x has 3 u's -> T three times; second x has none -> dropped.
	want := "<result><t>T</t><t>T</t><t>T</t></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

// TestTemplateReturn exercises element templates with holes.
func TestTemplateReturn(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'AW' return <entry><who>{$b/author}</who>done</entry>`, Options{})
	got := resultXML(t, res)
	want := "<result><entry><who><author>SB</author></who>done</entry></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestEmptyResult(t *testing.T) {
	res, _ := evalOn(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'NONE' return $b/title`, Options{})
	got := resultXML(t, res)
	if got != "<result/>" {
		t.Errorf("result = %s", got)
	}
}

func TestNoSuchPath(t *testing.T) {
	res, _ := evalOn(t, bibXML, `for $b in /bib/journal return $b`, Options{})
	if got := resultXML(t, res); got != "<result/>" {
		t.Errorf("result = %s", got)
	}
}

// TestRegularTableSelectProject is the SkyServer shape: select 2 of many
// columns with a predicate; only the touched vectors load.
func TestRegularTableSelectProject(t *testing.T) {
	var b strings.Builder
	b.WriteString("<table>")
	for i := 0; i < 500; i++ {
		b.WriteString("<row>")
		for c := 0; c < 10; c++ {
			name := string(rune('a' + c))
			val := "v"
			if c == 0 {
				if i%5 == 0 {
					val = "hit"
				} else {
					val = "miss"
				}
			}
			b.WriteString("<" + name + ">" + val + "</" + name + ">")
		}
		b.WriteString("</row>")
	}
	b.WriteString("</table>")
	res, st := evalOn(t, b.String(),
		`for $r in /table/row where $r/a = 'hit' return $r/b, $r/c`, Options{})
	got := resultXML(t, res)
	if strings.Count(got, "<b>") != 100 || strings.Count(got, "<c>") != 100 {
		t.Errorf("result counts wrong: %d b, %d c", strings.Count(got, "<b>"), strings.Count(got, "<c>"))
	}
	// Lazy loading: only vectors a (selection), b and c (output) open.
	if st.VectorsOpened != 3 {
		t.Errorf("vectors opened = %d, want 3", st.VectorsOpened)
	}
	if st.Tuples != 100 {
		t.Errorf("tuples = %d, want 100", st.Tuples)
	}
}

// TestRunCompression: structure-only steps keep single-row tables on
// regular data.
func TestRunCompression(t *testing.T) {
	var b strings.Builder
	b.WriteString("<table>")
	for i := 0; i < 1000; i++ {
		b.WriteString("<row><a>1</a></row>")
	}
	b.WriteString("</table>")
	_, st := evalOn(t, b.String(), `for $r in /table/row return $r/a`, Options{})
	// The bind produces one run row; no reduce step expands it.
	if st.RowsProduced > 2 {
		t.Errorf("rows produced = %d, want <= 2 (run-compressed)", st.RowsProduced)
	}
	// Ablation: with runs disabled the same query materializes per-row.
	// Rows are counted at production time; expansion happens after.
	evalOn(t, b.String(), `for $r in /table/row return $r/a`, Options{NoRunCompression: true})
}

func TestMidPathQualifier(t *testing.T) {
	doc := `<r><g><k>yes</k><v>A</v></g><g><k>no</k><v>B</v></g><g><k>yes</k><v>C</v></g></r>`
	res, _ := evalOn(t, doc, `for $v in /r/g[k='yes']/v return $v`, Options{})
	got := resultXML(t, res)
	want := "<result><v>A</v><v>C</v></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func TestMultipleQualifiers(t *testing.T) {
	doc := `<db>
<c><lang>dut</lang><year>1999</year><id>A</id></c>
<c><lang>dut</lang><year>2000</year><id>B</id></c>
<c><lang>eng</lang><year>1999</year><id>C</id></c>
<c><lang>dut</lang><year>1999</year><id>D</id></c>
</db>`
	res, _ := evalOn(t, doc, `/db/c[lang='dut'][year=1999]`, Options{})
	got := resultXML(t, res)
	if !strings.Contains(got, "<id>A</id>") || !strings.Contains(got, "<id>D</id>") ||
		strings.Contains(got, "<id>B</id>") || strings.Contains(got, "<id>C</id>") {
		t.Errorf("result = %s", got)
	}
}

func TestAttributeAccess(t *testing.T) {
	doc := `<people><person income="60000"><name>Ann</name></person><person income="10000"><name>Bob</name></person></people>`
	res, _ := evalOn(t, doc,
		`for $p in /people/person where $p/@income > 50000 return $p/name`, Options{})
	got := resultXML(t, res)
	if got != "<result><name>Ann</name></result>" {
		t.Errorf("result = %s", got)
	}
}

// TestMixedContentSubtreeCopy: copied subtrees preserve mixed content.
func TestMixedContentSubtreeCopy(t *testing.T) {
	doc := `<d><p>hello <b>bold</b> world</p><p>plain</p></d>`
	res, _ := evalOn(t, doc, `for $p in /d/p return $p`, Options{})
	got := resultXML(t, res)
	want := "<result><p>hello <b>bold</b> world</p><p>plain</p></result>"
	if got != want {
		t.Errorf("result = %s", got)
	}
}

func BenchmarkQ0(b *testing.B) {
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(bibXML, syms)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := qgraph.Build(xq.MustParse(q0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
		if _, err := eng.Eval(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}
