package vectorize

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"vxml/internal/vector"
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

// TestFig2Vectors checks the exact decomposition of the paper's Fig. 2(b).
func TestFig2Vectors(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	repo, err := FromString(bibXML, syms)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"/bib/book/publisher": {"SBP", "SBP", "AW"},
		"/bib/book/author":    {"RH", "RH", "SB"},
		"/bib/book/title":     {"Curation", "XML", "AXML"},
		"/bib/article/author": {"BC", "RH", "BC", "DD", "RH"},
		"/bib/article/title":  {"P2P", "XStore", "XPath"},
	}
	names := repo.Vectors.Names()
	if len(names) != len(want) {
		t.Fatalf("vectors = %v", names)
	}
	for name, vals := range want {
		v, err := repo.Vectors.Vector(name)
		if err != nil {
			t.Fatalf("vector %s: %v", name, err)
		}
		got, err := vector.All(v)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(vals, ",") {
			t.Errorf("%s = %v, want %v", name, got, vals)
		}
	}
	// Fig. 2(a): 8 unique nodes, 13 edges.
	if repo.Skel.NumNodes() != 8 || repo.Skel.NumEdges() != 13 {
		t.Errorf("skeleton = %d nodes / %d edges, want 8/13", repo.Skel.NumNodes(), repo.Skel.NumEdges())
	}
}

func TestReconstructBib(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	orig, err := xmlmodel.ParseString(bibXML, syms)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := FromTree(orig, syms)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReconstructTree(repo.Skel, repo.Classes, repo.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Errorf("reconstruction differs:\n%s", xmlmodel.TreeString(back, syms))
	}
}

func TestReconstructMixedContentAndAttrs(t *testing.T) {
	docs := []string{
		`<p>hello <b>bold</b> world</p>`,
		`<r a="1" b="2"><x c="3">v</x><x>w</x></r>`,
		`<a><e/><e/>text<e/></a>`,
	}
	syms := xmlmodel.NewSymbols()
	for _, doc := range docs {
		orig, err := xmlmodel.ParseString(doc, syms)
		if err != nil {
			t.Fatal(err)
		}
		repo, err := FromTree(orig, syms)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReconstructTree(repo.Skel, repo.Classes, repo.Vectors)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if !orig.Equal(back) {
			t.Errorf("%s: reconstruction differs: %s", doc, xmlmodel.TreeString(back, syms))
		}
	}
}

func TestRepositoryCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(bibXML), dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	var out1 strings.Builder
	if err := repo.WriteXML(&out1); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo2, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	var out2 strings.Builder
	if err := repo2.WriteXML(&out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Error("reopened repository reconstructs differently")
	}
	// Reparse and compare to the original tree.
	syms := xmlmodel.NewSymbols()
	orig, _ := xmlmodel.ParseString(bibXML, syms)
	back, err := xmlmodel.ParseString(out2.String(), syms)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip differs:\n%s", out2.String())
	}
	if repo2.Skel.NumNodes() != 8 {
		t.Errorf("reopened skeleton nodes = %d, want 8", repo2.Skel.NumNodes())
	}
}

func TestCreateRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(strings.NewReader(bibXML), dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(strings.NewReader(bibXML), dir, Options{}); err == nil {
		t.Error("second Create in same dir succeeded")
	}
}

func TestOpenMissingRepository(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("Open of empty dir succeeded")
	}
}

func TestVectorizerRejectsUnbalanced(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	vz := NewVectorizer(syms, MemSink{Set: vector.NewMemSet()})
	vz.Event(xmlmodel.Event{Kind: xmlmodel.StartElement, Tag: syms.Intern("a")})
	if _, err := vz.Skeleton(); err == nil {
		t.Error("Skeleton on unbalanced stream succeeded")
	}
}

func TestSkeletonFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(bibXML), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repo.Close()
	if _, err := os.Stat(filepath.Join(dir, "skeleton.bin")); err != nil {
		t.Errorf("skeleton file missing: %v", err)
	}
	for _, name := range []string{"vectors.dir", "vectors.seg", ManifestName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s missing: %v", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Errorf("repository holds %d files, want 4 (skeleton, vector directory and segment, manifest)", len(entries))
	}
}

func genTree(r *rand.Rand, syms *xmlmodel.Symbols, depth int) *xmlmodel.Node {
	tags := []string{"a", "b", "c", "d"}
	n := xmlmodel.NewElem(syms.Intern(tags[r.Intn(len(tags))]))
	kids := r.Intn(4)
	lastText := false
	for i := 0; i < kids; i++ {
		if depth >= 4 || r.Intn(3) == 0 {
			if lastText {
				continue // avoid adjacent text nodes (not a parse normal form)
			}
			n.Append(xmlmodel.NewText(fmt.Sprintf("t%d", r.Intn(1000))))
			lastText = true
		} else {
			n.Append(genTree(r, syms, depth+1))
			lastText = false
		}
	}
	return n
}

// TestPropertyVectorizeReconstructIdentity is Prop. 2.1 + 2.2: for random
// trees, reconstruct(vectorize(T)) == T exactly.
func TestPropertyVectorizeReconstructIdentity(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		repo, err := FromTree(tree, syms)
		if err != nil {
			t.Logf("seed %d: vectorize: %v", seed, err)
			return false
		}
		back, err := ReconstructTree(repo.Skel, repo.Classes, repo.Vectors)
		if err != nil {
			t.Logf("seed %d: reconstruct: %v", seed, err)
			return false
		}
		return tree.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVectorTotals: the number of values across all vectors equals
// the number of text nodes in the tree.
func TestPropertyVectorTotals(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		repo, err := FromTree(tree, syms)
		if err != nil {
			return false
		}
		var texts int64
		tree.Walk(func(n *xmlmodel.Node, _ int) bool {
			if n.IsText() {
				texts++
			}
			return true
		})
		total, err := vector.TotalValues(repo.Vectors)
		return err == nil && total == texts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func makeWideDoc(rows int) string {
	var b strings.Builder
	b.WriteString("<t>")
	for i := 0; i < rows; i++ {
		b.WriteString("<r><a>1</a><b>2</b><c>3</c></r>")
	}
	b.WriteString("</t>")
	return b.String()
}

// TestDiskRepositoryRegularData: a regular table persists and reconstructs
// through the disk path, exercising multi-page vectors.
func TestDiskRepositoryRegularData(t *testing.T) {
	dir := t.TempDir()
	doc := makeWideDoc(5000)
	repo, err := Create(strings.NewReader(doc), dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if repo.Skel.NumNodes() != 6 { // #, a, b, c, r, t
		t.Errorf("NumNodes = %d, want 6", repo.Skel.NumNodes())
	}
	v, err := repo.Vectors.Vector("/t/r/b")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 5000 {
		t.Errorf("vector len = %d, want 5000", v.Len())
	}
	var out strings.Builder
	if err := repo.WriteXML(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "<t><r><a>1</a>") {
		t.Errorf("reconstruction prefix = %q", out.String()[:40])
	}
	if got := strings.Count(out.String(), "<r>"); got != 5000 {
		t.Errorf("rows reconstructed = %d", got)
	}
}

func BenchmarkVectorizeMem(b *testing.B) {
	doc := makeWideDoc(2000)
	syms := xmlmodel.NewSymbols()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromString(doc, syms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct(b *testing.B) {
	doc := makeWideDoc(2000)
	syms := xmlmodel.NewSymbols()
	repo, err := FromString(doc, syms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		if err := ReconstructXML(repo.Skel, repo.Classes, repo.Vectors, syms, &out); err != nil {
			b.Fatal(err)
		}
	}
}
