package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// genBib builds a multi-page bib document with joins and selective values.
func genBib(n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<book><publisher>P%d</publisher><author>A%d</author><title>Book %d — a title long enough to fill vector pages reasonably fast</title><price>%d</price></book>",
			i%7, i%13, i, 10+i%50)
	}
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&b, "<article><author>A%d</author><title>Article %d</title></article>", i%13, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

var concurrentQueries = []string{
	`<result>
	 for $b in doc("bib.xml")/bib/book
	 where $b/publisher = 'P3'
	 return $b/title
	 </result>`,
	`<result>
	 for $d in doc("bib.xml")/bib, $b in $d/book, $a in $d/article
	 where $b/author = $a/author and $b/publisher = 'P5'
	 return $b/title, $a/title
	 </result>`,
	`<result>
	 for $b in doc("bib.xml")//book
	 where $b/price > '49'
	 return $b/author
	 </result>`,
}

func planFor(t testing.TB, src string) *qgraph.Plan {
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

// fingerprint serializes a query result — skeleton encoding plus every
// output vector's values — so two evaluations can be compared byte for
// byte.
func fingerprint(skel *skeleton.Skeleton, syms *xmlmodel.Symbols, set vector.Set) (string, error) {
	var b strings.Builder
	var sk bytes.Buffer
	if err := skeleton.Encode(&sk, skel, syms); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "skel:%x\n", sk.Bytes())
	for _, name := range set.Names() {
		v, err := set.Vector(name)
		if err != nil {
			return "", err
		}
		vals, err := vector.All(v)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s:%q\n", name, vals)
	}
	return b.String(), nil
}

func openDiskRepo(t testing.TB, doc string, poolPages int) *vectorize.Repository {
	t.Helper()
	dir := t.TempDir()
	repo, err := vectorize.Create(strings.NewReader(doc), dir, vectorize.Options{PoolPages: poolPages})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("close repo: %v", err)
	}
	repo, err = vectorize.Open(dir, vectorize.Options{PoolPages: poolPages})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo
}

// TestConcurrentEvalMatchesSerial runs 16 concurrent Eval calls (half
// through one shared engine, half through per-query engines) against a
// single on-disk repository and checks every result matches the serial
// baseline byte for byte.
func TestConcurrentEvalMatchesSerial(t *testing.T) {
	repo := openDiskRepo(t, genBib(400), 64)
	plans := make([]*qgraph.Plan, len(concurrentQueries))
	want := make([]string, len(concurrentQueries))
	for i, src := range concurrentQueries {
		plans[i] = planFor(t, src)
		eng := NewRepoEngine(repo, Options{})
		res, err := eng.Eval(context.Background(), plans[i])
		if err != nil {
			t.Fatalf("serial eval %d: %v", i, err)
		}
		fp, err := fingerprint(res.Skel, res.Syms, res.Vectors)
		if err != nil {
			t.Fatalf("fingerprint %d: %v", i, err)
		}
		want[i] = fp
	}

	const goroutines = 16
	shared := NewRepoEngine(repo, Options{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qi := g % len(plans)
			eng := shared
			if g%2 == 1 {
				eng = NewRepoEngine(repo, Options{})
			}
			res, err := eng.Eval(context.Background(), plans[qi])
			if err != nil {
				t.Errorf("goroutine %d: eval: %v", g, err)
				return
			}
			got, err := fingerprint(res.Skel, res.Syms, res.Vectors)
			if err != nil {
				t.Errorf("goroutine %d: fingerprint: %v", g, err)
				return
			}
			if got != want[qi] {
				t.Errorf("goroutine %d: query %d result differs from serial evaluation", g, qi)
			}
		}(g)
	}
	wg.Wait()
}

// TestEvalTinyPoolCopiesValues evaluates with a buffer pool so small that
// frames are recycled mid-scan: if result construction retained a
// frame-aliased val instead of copying, the result would contain bytes
// from later pages.
func TestEvalTinyPoolCopiesValues(t *testing.T) {
	doc := genBib(400)
	big := openDiskRepo(t, doc, 256)
	eng := NewRepoEngine(big, Options{})
	plan := planFor(t, concurrentQueries[0])
	res, err := eng.Eval(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingerprint(res.Skel, res.Syms, res.Vectors)
	if err != nil {
		t.Fatal(err)
	}

	tiny := openDiskRepo(t, doc, 2) // 2 pages: every Get evicts
	tinyEng := NewRepoEngine(tiny, Options{})
	resTiny, err := tinyEng.Eval(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	gotMem, err := fingerprint(resTiny.Skel, resTiny.Syms, resTiny.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if gotMem != want {
		t.Error("result corrupted under a tiny buffer pool (frame aliasing)")
	}
}
