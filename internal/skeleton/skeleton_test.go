package skeleton

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vxml/internal/xmlmodel"
)

const bibXML = `<bib>
  <book><publisher>SBP</publisher><author>RH</author><title>Curation</title></book>
  <book><publisher>SBP</publisher><author>RH</author><title>XML</title></book>
  <book><publisher>AW</publisher><author>SB</author><title>AXML</title></book>
  <article><author>BC</author><title>P2P</title></article>
  <article><author>RH</author><author>BC</author><title>XStore</title></article>
  <article><author>DD</author><author>RH</author><title>XPath</title></article>
</bib>`

func buildBib(t testing.TB) (*Skeleton, *Classes, *xmlmodel.Symbols) {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(bibXML, syms)
	if err != nil {
		t.Fatal(err)
	}
	skel := FromTree(root, NewBuilder())
	return skel, NewClasses(skel, syms), syms
}

// TestBibCompression checks the Fig. 2(a) shape: the three identical books
// share one node, the two two-author articles share one node.
func TestBibCompression(t *testing.T) {
	skel, _, _ := buildBib(t)
	// Unique nodes: #, publisher, author, title, book, article(1 author),
	// article(2 authors), bib = 8.
	if got := skel.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
	// Edges: bib->book, bib->art1, bib->art23 (3); book->pub,auth,title (3);
	// art1->auth,title (2); art23->auth,title (2); pub,auth,title->'#' (3).
	if got := skel.NumEdges(); got != 13 {
		t.Errorf("NumEdges = %d, want 13", got)
	}
	// The bib root should have a counted edge (3) to the shared book node
	// and a counted edge (2) to the shared two-author article node.
	root := skel.Edges(skel.Root)
	if len(root) != 3 {
		t.Fatalf("root edges = %d, want 3: %+v", len(root), root)
	}
	if root[0].Count != 3 {
		t.Errorf("book edge count = %d, want 3", root[0].Count)
	}
	if root[1].Count != 1 || root[2].Count != 2 {
		t.Errorf("article edge counts = %d,%d, want 1,2", root[1].Count, root[2].Count)
	}
}

func TestExpandedSize(t *testing.T) {
	skel, _, _ := buildBib(t)
	// Same node count as the tree: 41 (see xmlmodel test).
	if got := skel.ExpandedSize(); got != 41 {
		t.Errorf("ExpandedSize = %d, want 41", got)
	}
}

func TestHashConsIdempotent(t *testing.T) {
	b := NewBuilder()
	syms := xmlmodel.NewSymbols()
	a := syms.Intern("a")
	leaf1 := b.Make(a, nil)
	leaf2 := b.Make(a, nil)
	if leaf1 != leaf2 {
		t.Error("identical leaves not shared")
	}
	n1 := b.Make(a, []Edge{{leaf1, 2}})
	n2 := b.Make(a, []Edge{{leaf1, 1}, {leaf2, 1}})
	if n1 != n2 {
		t.Error("consecutive identical edges not merged before consing")
	}
	if edges := b.Finish(n1).Edges(n1); len(edges) != 1 || edges[0].Count != 2 {
		t.Errorf("merged edge = %+v", edges)
	}
}

func TestBuilderText(t *testing.T) {
	b := NewBuilder()
	if b.Text() != b.Text() {
		t.Error("text marker not unique")
	}
}

func TestBuilderImport(t *testing.T) {
	skel, _, syms := buildBib(t)
	b2 := NewBuilder()
	im := NewImporter(b2, skel, nil, nil)
	imported := im.Import(skel.Root)
	if again := im.Import(skel.Root); imported != again {
		t.Error("import not idempotent")
	}
	if again := NewImporter(b2, skel, nil, nil).Import(skel.Root); imported != again {
		t.Error("a second importer did not hash-cons onto the first one's nodes")
	}
	s2 := b2.Finish(imported)
	if s2.String(syms) != skel.String(syms) {
		t.Errorf("imported skeleton renders differently:\n%s\nwant\n%s", s2.String(syms), skel.String(syms))
	}
	if s2.NumEdges() != skel.NumEdges() || s2.ExpandedSize() != skel.ExpandedSize() {
		t.Errorf("imported edges, expanded size = %d, %d, want %d, %d",
			s2.NumEdges(), s2.ExpandedSize(), skel.NumEdges(), skel.ExpandedSize())
	}

	// Translating into a symbol table that interned the tags in another
	// order keeps the names, and so the rendering.
	syms3 := xmlmodel.NewSymbols()
	syms3.Intern("zzz")
	syms3.Intern("title")
	b3 := NewBuilder()
	s3 := b3.Finish(NewImporter(b3, skel, syms, syms3).Import(skel.Root))
	if s3.String(syms3) != skel.String(syms) {
		t.Errorf("translated skeleton renders differently:\n%s\nwant\n%s", s3.String(syms3), skel.String(syms))
	}
	if s3.Tag(s3.Root) == skel.Tag(skel.Root) {
		t.Errorf("root tag %d was not translated", s3.Tag(s3.Root))
	}
}

func TestClassesDiscovery(t *testing.T) {
	_, cls, _ := buildBib(t)
	// Classes: /bib, /bib/book, /bib/article, book/{publisher,author,title},
	// article/{author,title}, plus 5 text classes = 3 + 5 + 5 = 13.
	if got := cls.NumClasses(); got != 13 {
		t.Errorf("NumClasses = %d, want 13", got)
	}
	texts := cls.TextClasses()
	if len(texts) != 5 {
		t.Fatalf("TextClasses = %d, want 5", len(texts))
	}
	names := make([]string, len(texts))
	for i, tc := range texts {
		names[i] = cls.VectorName(tc)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"/bib/book/publisher", "/bib/book/author", "/bib/book/title", "/bib/article/author", "/bib/article/title"} {
		if !strings.Contains(joined, want) {
			t.Errorf("vector %s missing from %v", want, names)
		}
	}
}

func TestClassCounts(t *testing.T) {
	_, cls, _ := buildBib(t)
	cases := map[string]int64{
		"/bib":                 1,
		"/bib/book":            3,
		"/bib/article":         3,
		"/bib/book/title":      3,
		"/bib/article/author":  5,
		"/bib/article/title/#": 3,
	}
	for path, want := range cases {
		id := cls.Resolve(path)
		if id == NoClass {
			t.Errorf("Resolve(%s) = NoClass", path)
			continue
		}
		if got := cls.Count(id); got != want {
			t.Errorf("Count(%s) = %d, want %d", path, got, want)
		}
	}
	if cls.Resolve("/bib/book/isbn") != NoClass {
		t.Error("Resolve of absent path should be NoClass")
	}
	if cls.Resolve("/wrongroot") != NoClass {
		t.Error("Resolve of wrong root should be NoClass")
	}
}

func TestRunMapShape(t *testing.T) {
	_, cls, _ := buildBib(t)
	auth := cls.Resolve("/bib/article/author")
	rm := cls.Runs(auth)
	want := RunMap{{Parents: 1, Fanout: 1}, {Parents: 2, Fanout: 2}}
	if len(rm) != len(want) {
		t.Fatalf("runs = %+v, want %+v", rm, want)
	}
	for i := range want {
		if rm[i] != want[i] {
			t.Errorf("run[%d] = %+v, want %+v", i, rm[i], want[i])
		}
	}
	if rm.TotalParents() != 3 || rm.TotalChildren() != 5 {
		t.Errorf("totals = %d/%d, want 3/5", rm.TotalParents(), rm.TotalChildren())
	}
}

func TestDescendants(t *testing.T) {
	_, cls, syms := buildBib(t)
	got := cls.Descendants(cls.Root(), syms.Intern("author"))
	if len(got) != 2 {
		t.Fatalf("Descendants(author) = %d classes, want 2", len(got))
	}
	titleTexts := cls.Descendants(cls.Root(), TextStep)
	if len(titleTexts) != 5 {
		t.Errorf("Descendants(text) = %d, want 5", len(titleTexts))
	}
}

func TestCursorPrefixAndSpan(t *testing.T) {
	rm := RunMap{{Parents: 1, Fanout: 1}, {Parents: 2, Fanout: 2}}
	c := NewCursor(rm)
	for _, tc := range []struct{ p, want int64 }{{0, 0}, {1, 1}, {2, 3}, {3, 5}} {
		if got := c.Prefix(tc.p); got != tc.want {
			t.Errorf("Prefix(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
	start, count := c.ChildSpan(1, 2)
	if start != 1 || count != 4 {
		t.Errorf("ChildSpan(1,2) = (%d,%d), want (1,4)", start, count)
	}
	// Non-monotonic access must still be correct (cursor rewinds).
	if got := c.Prefix(0); got != 0 {
		t.Errorf("Prefix(0) after seek = %d, want 0", got)
	}
}

func TestCursorSegments(t *testing.T) {
	rm := RunMap{{Parents: 2, Fanout: 3}, {Parents: 1, Fanout: 0}, {Parents: 3, Fanout: 1}}
	c := NewCursor(rm)
	type seg struct{ p0, n, k, c0 int64 }
	var got []seg
	c.Segments(1, 4, func(p0, n, k, c0 int64) { got = append(got, seg{p0, n, k, c0}) })
	want := []seg{{1, 1, 3, 3}, {2, 1, 0, 6}, {3, 2, 1, 6}}
	if len(got) != len(want) {
		t.Fatalf("segments = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seg[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCursorParentOf(t *testing.T) {
	rm := RunMap{{Parents: 1, Fanout: 1}, {Parents: 2, Fanout: 2}}
	c := NewCursor(rm)
	wants := []int64{0, 1, 1, 2, 2}
	for x, want := range wants {
		if got := c.ParentOf(int64(x)); got != want {
			t.Errorf("ParentOf(%d) = %d, want %d", x, got, want)
		}
	}
	// Backwards too.
	if got := c.ParentOf(0); got != 0 {
		t.Errorf("ParentOf(0) = %d, want 0", got)
	}
}

func TestAppendRepeatedCollapses(t *testing.T) {
	sub := RunMap{{Parents: 5, Fanout: 2}}
	rm := appendRepeated(nil, sub, 1000000)
	if len(rm) != 1 || rm[0].Parents != 5000000 {
		t.Errorf("repeated single run = %+v", rm)
	}
	uniform := RunMap{{Parents: 2, Fanout: 3}, {Parents: 1, Fanout: 3}}
	rm = appendRepeated(nil, uniform, 10)
	if len(rm) != 1 || rm[0].Parents != 30 || rm[0].Fanout != 3 {
		t.Errorf("repeated uniform runs = %+v", rm)
	}
}

// TestRegularTableTinySkeleton is the Fig. 2(c) claim: a wide flat table
// compresses to a skeleton whose size is independent of the row count.
func TestRegularTableTinySkeleton(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	for _, rows := range []int{10, 1000} {
		var b strings.Builder
		b.WriteString("<table>")
		for i := 0; i < rows; i++ {
			b.WriteString("<row>")
			for c := 0; c < 5; c++ {
				fmt.Fprintf(&b, "<c%d>v</c%d>", c, c)
			}
			b.WriteString("</row>")
		}
		b.WriteString("</table>")
		root, err := xmlmodel.ParseString(b.String(), syms)
		if err != nil {
			t.Fatal(err)
		}
		skel := FromTree(root, NewBuilder())
		// #, c0..c4, row, table = 8 nodes regardless of rows.
		if got := skel.NumNodes(); got != 8 {
			t.Errorf("rows=%d: NumNodes = %d, want 8", rows, got)
		}
		cls := NewClasses(skel, syms)
		rowCls := cls.Resolve("/table/row")
		rm := cls.Runs(rowCls)
		if len(rm) != 1 || rm[0] != (Run{Parents: 1, Fanout: int64(rows)}) {
			t.Errorf("rows=%d: row runs = %+v", rows, rm)
		}
		c0 := cls.Resolve("/table/row/c0")
		if rm := cls.Runs(c0); len(rm) != 1 || rm[0] != (Run{Parents: int64(rows), Fanout: 1}) {
			t.Errorf("rows=%d: c0 runs = %+v", rows, rm)
		}
	}
}

// genTree builds a random tree for property tests.
func genTree(r *rand.Rand, syms *xmlmodel.Symbols, depth int) *xmlmodel.Node {
	tags := []string{"a", "b", "c"}
	n := xmlmodel.NewElem(syms.Intern(tags[r.Intn(len(tags))]))
	kids := r.Intn(4)
	for i := 0; i < kids; i++ {
		if depth >= 4 || r.Intn(3) == 0 {
			n.Append(xmlmodel.NewText("t"))
		} else {
			n.Append(genTree(r, syms, depth+1))
		}
	}
	return n
}

// TestPropertyWalkReconstructsShape: expanding the skeleton reproduces the
// original tree's shape (tags and text-marker positions) exactly.
func TestPropertyWalkReconstructsShape(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		skel := FromTree(tree, NewBuilder())

		var shape []string
		tree.Walk(func(n *xmlmodel.Node, depth int) bool {
			if n.IsText() {
				shape = append(shape, "#")
			} else {
				shape = append(shape, syms.Name(n.Tag))
			}
			return true
		})
		var got []string
		err := skel.Walk(func(n NodeID) error {
			if skel.IsText(n) {
				got = append(got, "#")
			} else {
				got = append(got, syms.Name(skel.Tag(n)))
			}
			return nil
		}, func(NodeID) error { return nil })
		if err != nil {
			return false
		}
		if len(got) != len(shape) {
			return false
		}
		for i := range got {
			if got[i] != shape[i] {
				return false
			}
		}
		if skel.ExpandedSize() != int64(tree.CountNodes()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRunMapTotals: for every class, the trie — path, count,
// parent, kids and child steps — and the run map totals agree with a
// brute-force walk of the decompressed tree.
func TestPropertyRunMapTotals(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		skel := FromTree(tree, NewBuilder())
		cls := NewClasses(skel, syms)

		// Count occurrences per path, and collect each path's child
		// paths by step, by brute-force walk of the tree.
		brute := make(map[string]int64)
		kids := make(map[string]map[string]string) // path -> step -> child path
		var rec func(n *xmlmodel.Node, path string)
		rec = func(n *xmlmodel.Node, path string) {
			step := "#"
			if !n.IsText() {
				step = syms.Name(n.Tag)
			}
			p := path + "/" + step
			brute[p]++
			if path != "" {
				if kids[path] == nil {
					kids[path] = make(map[string]string)
				}
				kids[path][step] = p
			}
			for _, k := range n.Kids {
				rec(k, p)
			}
		}
		rec(tree, "")

		if cls.NumClasses() != len(brute) {
			t.Logf("seed %d: %d classes, %d distinct paths", seed, cls.NumClasses(), len(brute))
			return false
		}
		for id := ClassID(0); int(id) < cls.NumClasses(); id++ {
			path := cls.Path(id)
			if cls.Count(id) != brute[path] {
				t.Logf("seed %d: class %s count %d, brute %d", seed, path, cls.Count(id), brute[path])
				return false
			}
			p, parentPath := cls.Parent(id), path[:strings.LastIndexByte(path, '/')]
			if id == cls.Root() && p != NoClass || id != cls.Root() && (p >= id || cls.Path(p) != parentPath) {
				t.Logf("seed %d: class %s has parent %d", seed, path, p)
				return false
			}
			ks := cls.Kids(id)
			if len(ks) != len(kids[path]) {
				t.Logf("seed %d: class %s has %d kids, the tree %d", seed, path, len(ks), len(kids[path]))
				return false
			}
			for i, k := range ks {
				if cls.Parent(k) != id || i > 0 && k <= ks[i-1] {
					t.Logf("seed %d: class %s kids %v out of order or not its own", seed, path, ks)
					return false
				}
			}
			for step, kidPath := range kids[path] {
				st := TextStep
				if step != "#" {
					st = syms.Lookup(step)
				}
				if k := cls.Child(id, st); k == NoClass || cls.Path(k) != kidPath {
					t.Logf("seed %d: class %s step %s resolves to %d", seed, path, step, k)
					return false
				}
			}
			if cls.Child(id, syms.Intern("absent")) != NoClass {
				return false
			}
			if id != cls.Root() {
				rm := cls.Runs(id)
				if rm.TotalParents() != cls.Count(cls.Parent(id)) {
					return false
				}
				if rm.TotalChildren() != cls.Count(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestClassesConcurrentMemos: goroutines sharing one registry derive
// paths, vector names, run maps, cursors, node runs and descendant sets
// concurrently, and see what a serial registry sees. Run it under the
// race detector: the lazy memos are what it guards.
func TestClassesConcurrentMemos(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	tree := genTree(rand.New(rand.NewSource(7)), syms, 0)
	for i := int64(0); i < 8; i++ {
		tree.Append(genTree(rand.New(rand.NewSource(i)), syms, 1))
	}
	skel := FromTree(tree, NewBuilder())
	serial := NewClasses(skel, syms)
	var steps []xmlmodel.Sym // every tag a class carries, TextStep included
	seen := map[xmlmodel.Sym]bool{}
	for id := 0; id < serial.NumClasses(); id++ {
		if tag := serial.Tag(ClassID(id)); !seen[tag] {
			seen[tag] = true
			steps = append(steps, tag)
		}
	}
	describe := func(cls *Classes, id ClassID) string {
		s := cls.Path(id)
		for _, step := range steps {
			s += fmt.Sprint(cls.Descendants(id, step))
		}
		if cls.IsText(id) {
			s += " " + cls.VectorName(id)
		}
		if id != cls.Root() {
			s += fmt.Sprint(cls.Runs(id), cls.Cursor(id).Prefix(1))
		}
		return s + fmt.Sprint(len(cls.NodeRuns(id)))
	}
	want := make([]string, serial.NumClasses())
	for id := range want {
		want[id] = describe(serial, ClassID(id))
	}
	shared := NewClasses(skel, syms)
	const workers = 16
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			// Each worker visits the classes in its own order, so first
			// derivations race with memo reads.
			r := rand.New(rand.NewSource(int64(w)))
			for _, i := range r.Perm(len(want)) {
				if got := describe(shared, ClassID(i)); got != want[i] {
					errs <- fmt.Sprintf("class %d: %q, serially %q", i, got, want[i])
					return
				}
			}
			errs <- ""
		}(w)
	}
	for w := 0; w < workers; w++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

// TestPropertyCursorConsistency: Prefix/ParentOf are mutually inverse on
// random run maps.
func TestPropertyCursorConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var rm RunMap
		for i := 0; i < 1+r.Intn(5); i++ {
			rm = append(rm, Run{Parents: int64(1 + r.Intn(4)), Fanout: int64(r.Intn(4))})
		}
		rm = rm.normalized()
		c := NewCursor(rm)
		total := rm.TotalChildren()
		for x := int64(0); x < total; x++ {
			p := c.ParentOf(x)
			lo := c.Prefix(p)
			hi := c.Prefix(p + 1)
			if x < lo || x >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFromTree(b *testing.B) {
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(bibXML, syms)
	if err != nil {
		b.Fatal(err)
	}
	big := xmlmodel.NewElem(syms.Intern("docs"))
	for i := 0; i < 500; i++ {
		big.Append(root.Clone())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromTree(big, NewBuilder())
	}
}

func BenchmarkRunsRegularTable(b *testing.B) {
	syms := xmlmodel.NewSymbols()
	row := xmlmodel.NewElem(syms.Intern("row"))
	for c := 0; c < 20; c++ {
		row.Append(xmlmodel.NewElem(syms.Intern(fmt.Sprintf("c%d", c)), xmlmodel.NewText("v")))
	}
	table := xmlmodel.NewElem(syms.Intern("table"))
	for i := 0; i < 10000; i++ {
		table.Append(row.Clone())
	}
	skel := FromTree(table, NewBuilder())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls := NewClasses(skel, syms)
		c0 := cls.Resolve("/table/row/c0")
		if cls.Runs(c0).TotalChildren() != 10000 {
			b.Fatal("bad runs")
		}
	}
}
