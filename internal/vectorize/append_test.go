package vectorize

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vxml/internal/datagen"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

func TestRepositoryAppend(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(
		`<bib><book><title>A</title></book><book><title>B</title></book></bib>`),
		dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Append two more books and a new element kind.
	err = repo.Append(strings.NewReader(
		`<bib><book><title>C</title></book><article><who>X</who></article></bib>`))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := repo.WriteXML(&out); err != nil {
		t.Fatal(err)
	}
	want := "<bib><book><title>A</title></book><book><title>B</title></book>" +
		"<book><title>C</title></book><article><who>X</who></article></bib>"
	if out.String() != want {
		t.Errorf("after append:\n%s", out.String())
	}
	// The title vector grew in place; the new path got its own vector.
	v, err := repo.Vectors.Vector("/bib/book/title")
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := vector.All(v)
	if strings.Join(vals, ",") != "A,B,C" {
		t.Errorf("titles = %v", vals)
	}
	if _, err := repo.Vectors.Vector("/bib/article/who"); err != nil {
		t.Errorf("new vector missing: %v", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Persistence: reopen and check everything survived.
	repo2, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	var out2 strings.Builder
	if err := repo2.WriteXML(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != want {
		t.Errorf("after reopen:\n%s", out2.String())
	}
}

func TestAppendRejectsWrongRoot(t *testing.T) {
	repo, err := Create(strings.NewReader(`<bib><x>1</x></bib>`), t.TempDir(), Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if err := repo.Append(strings.NewReader(`<other><x>2</x></other>`)); err == nil {
		t.Error("append with mismatched root succeeded")
	}
}

func TestAppendManyBatches(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(`<log><e><n>0</n></e></log>`), dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	total := 1
	for batch := 1; batch <= 5; batch++ {
		var frag strings.Builder
		frag.WriteString("<log>")
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&frag, "<e><n>%d</n></e>", total)
			total++
		}
		frag.WriteString("</log>")
		if err := repo.Append(strings.NewReader(frag.String())); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	v, err := repo.Vectors.Vector("/log/e/n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != int64(total) {
		t.Fatalf("vector len = %d, want %d", v.Len(), total)
	}
	vals, _ := vector.All(v)
	for i, got := range vals {
		if got != fmt.Sprint(i) {
			t.Fatalf("val[%d] = %q", i, got)
		}
	}
	// Skeleton stays compact: the repeated <e> shares one node.
	if repo.Skel.NumNodes() > 8 {
		t.Errorf("skeleton nodes = %d", repo.Skel.NumNodes())
	}
	if cnt := repo.Classes.Count(repo.Classes.Resolve("/log/e")); cnt != int64(total) {
		t.Errorf("class count = %d, want %d", cnt, total)
	}
}

func TestAppendCompressedRepository(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(`<d><v>alpha</v><v>beta</v></d>`), dir,
		Options{PoolPages: 64, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if err := repo.Append(strings.NewReader(`<d><v>gamma</v></d>`)); err != nil {
		t.Fatal(err)
	}
	v, err := repo.Vectors.Vector("/d/v")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := vector.All(v)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(vals, ",") != "alpha,beta,gamma" {
		t.Errorf("vals = %v", vals)
	}
}

// TestAppendMatchesFromScratch: appending fragments produces the same
// repository state as vectorizing the concatenated document: the same
// XML, and a skeleton of the same nodes, edges and expanded size — so
// Append's compaction keeps exactly the reachable nodes.
func TestAppendMatchesFromScratch(t *testing.T) {
	check := func(t *testing.T, parts []string) {
		dir := t.TempDir()
		repo, err := Create(strings.NewReader(parts[0]), dir, Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		// The concatenated document: the first part's root around every
		// part's children.
		tag := parts[0][1:strings.IndexByte(parts[0], '>')]
		openTag, closeTag := "<"+tag+">", "</"+tag+">"
		combined := openTag
		for i, p := range parts {
			if i > 0 {
				if err := repo.Append(strings.NewReader(p)); err != nil {
					t.Fatal(err)
				}
			}
			p = strings.TrimSpace(p)
			combined += strings.TrimSuffix(strings.TrimPrefix(p, openTag), closeTag)
		}
		combined += closeTag
		var got strings.Builder
		if err := repo.WriteXML(&got); err != nil {
			t.Fatal(err)
		}

		syms := xmlmodel.NewSymbols()
		ref, err := FromString(combined, syms)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := ReconstructXML(ref.Skel, ref.Classes, ref.Vectors, syms, &want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("append != scratch:\nappend:  %.300s\nscratch: %.300s", got.String(), want.String())
		}
		a, s := repo.Skel, ref.Skel
		if a.NumNodes() != s.NumNodes() || a.NumEdges() != s.NumEdges() || a.ExpandedSize() != s.ExpandedSize() {
			t.Errorf("skeleton nodes, edges, expanded size: append %d, %d, %d; scratch %d, %d, %d",
				a.NumNodes(), a.NumEdges(), a.ExpandedSize(), s.NumNodes(), s.NumEdges(), s.ExpandedSize())
		}
	}
	t.Run("fragment", func(t *testing.T) {
		check(t, []string{
			`<db><r><a>1</a><b>x</b></r><r><a>2</a></r></db>`,
			`<db><r><b>y</b></r><s><c>deep</c></s></db>`,
		})
	})
	t.Run("treebank", func(t *testing.T) {
		// Four TreeBank documents, one Create and three Appends: later
		// documents share many subtrees with earlier ones.
		var parts []string
		for seed := int64(1); seed <= 4; seed++ {
			var doc strings.Builder
			if err := (datagen.TreeBank{Sentences: 40, MaxDepth: 5, Seed: seed}).Generate(&doc); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, doc.String())
		}
		check(t, parts)
	})
}

// TestAppendMovesPackedTailOnce: a repository's small vectors share a
// page. The first append to one of them moves its tail to a page of its
// own, once, leaving every other vector's extents byte-identical; a
// second append grows that page in place.
func TestAppendMovesPackedTailOnce(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(
		`<bib><book><title>A</title><year>1999</year></book><book><title>B</title><year>2001</year></book></bib>`),
		dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	set := repo.Vectors.(*vector.DiskSet)
	const title, year = "/bib/book/title", "/bib/book/year"
	extents := func(name string) []vector.Extent {
		ext, _ := set.Extents(name)
		return ext
	}
	t0, y0 := extents(title), extents(year)
	if len(t0) != 1 || len(y0) != 1 || t0[0].Page != y0[0].Page {
		t.Fatalf("title %v and year %v do not share a page", t0, y0)
	}
	pages := set.Segment().NumPages()

	if err := repo.Append(strings.NewReader(`<bib><book><title>C</title></book></bib>`)); err != nil {
		t.Fatal(err)
	}
	t1 := extents(title)
	if len(t1) != 1 || t1[0].Page == t0[0].Page || t1[0].Off != 0 || t1[0].N != 3 {
		t.Fatalf("after the first append title = %v, want one extent of 3 on a new page", t1)
	}
	if got := extents(year); !slices.Equal(got, y0) {
		t.Errorf("year's extents changed from %v to %v", y0, got)
	}
	if n := set.Segment().NumPages(); n != pages+1 {
		t.Errorf("segment grew from %d to %d pages, want one new page", pages, n)
	}

	if err := repo.Append(strings.NewReader(`<bib><book><title>D</title></book></bib>`)); err != nil {
		t.Fatal(err)
	}
	t2 := extents(title)
	if len(t2) != 1 || t2[0].Page != t1[0].Page || t2[0].Off != 0 || t2[0].N != 4 || t2[0].Len <= t1[0].Len {
		t.Fatalf("after the second append title = %v, want %v grown in place", t2, t1)
	}
	if got := extents(year); !slices.Equal(got, y0) {
		t.Errorf("year's extents changed from %v to %v", y0, got)
	}
	if n := set.Segment().NumPages(); n != pages+1 {
		t.Errorf("the in-place append grew the segment to %d pages, want %d", n, pages+1)
	}
	v, err := repo.Vectors.Vector(title)
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := vector.All(v); err != nil || strings.Join(vals, ",") != "A,B,C,D" {
		t.Errorf("titles = %v, %v", vals, err)
	}
	if _, err := Fsck(dir, Options{PoolPages: 64}); err != nil {
		t.Errorf("fsck: %v", err)
	}
}

// TestAppendAfterCrashedNewPath: an append that creates a vector for a new
// path and crashes after committing the vector directory, before the
// skeleton, leaves a vector no skeleton class reaches. Open cuts it to
// nothing, so a later append of that path starts it afresh instead of
// behind the dead append's values.
func TestAppendAfterCrashedNewPath(t *testing.T) {
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(`<bib><book><title>A</title></book></bib>`), dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The skeleton and manifest as they were before the dead append.
	var saved [2][]byte
	for i, name := range []string{skeletonFile, ManifestName} {
		if saved[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Append(strings.NewReader(`<bib><article><who>DEAD</who></article></bib>`)); err != nil {
		t.Fatal(err)
	}
	repo.Close()
	for i, name := range []string{skeletonFile, ManifestName} {
		if err := os.WriteFile(filepath.Join(dir, name), saved[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	repo, err = Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if n, _ := repo.Vectors.(*vector.DiskSet).Count("/bib/article/who"); n != 0 {
		t.Fatalf("the dead append's vector holds %d values after Open, want 0", n)
	}
	if err := repo.Append(strings.NewReader(`<bib><article><who>LIVE</who></article></bib>`)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := repo.WriteXML(&out); err != nil {
		t.Fatal(err)
	}
	if want := `<bib><book><title>A</title></book><article><who>LIVE</who></article></bib>`; out.String() != want {
		t.Errorf("after the crash and a new append:\n%s\nwant\n%s", out.String(), want)
	}
}
