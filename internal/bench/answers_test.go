package bench

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/datagen"
	"vxml/internal/dom"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// answerDocs are the smoke-size documents the thirteen queries' answers
// are pinned on.
var answerDocs = map[DatasetID]interface{ Generate(io.Writer) error }{
	XK: datagen.XMark{Scale: 0.05, Seed: 1},
	TB: datagen.TreeBank{Sentences: 200, Seed: 1},
	ML: datagen.MedLine{Citations: 1000, Seed: 1},
	SS: datagen.SkyServerDB{Rows: 500, Cols: 40, Seed: 1},
}

// domOrdered are the queries whose answer the engine gives in the DOM
// interpreter's order: no '//' or '*' step, and a join returns its
// earlier-bound variable. The others (TQ2 and TQ3 group descendant
// matches by path class; SQ3 returns its later-bound variable) are held
// to the golden file only.
var domOrdered = map[QueryID]bool{
	KQ1: true, KQ2: true, KQ3: true, KQ4: true, TQ1: true,
	MQ1: true, MQ2: true, SQ1: true, SQ2: true, SQ4: true,
}

// TestTable3Answers pins the thirteen queries' result XML: the paged and
// the in-memory repository give the same bytes, those bytes hash to the
// committed golden line, and for an ordered query they are the DOM
// interpreter's, byte for byte.
func TestTable3Answers(t *testing.T) {
	golden := readGolden(t, "testdata/table3_answers.golden")
	docs := map[DatasetID]string{}
	for _, q := range AllQueries {
		ds := DatasetOf(q)
		doc, ok := docs[ds]
		if !ok {
			var b strings.Builder
			if err := answerDocs[ds].Generate(&b); err != nil {
				t.Fatal(err)
			}
			doc = b.String()
			docs[ds] = doc
		}
		src := QuerySources[q]
		paged := pagedAnswer(t, doc, src)
		if mem := memAnswer(t, doc, src); mem != paged {
			t.Errorf("%s: in-memory answer (%d bytes) differs from the paged one (%d bytes)", q, len(mem), len(paged))
		}
		if got := fmt.Sprintf("%s %d %x", q, len(paged), sha256.Sum256([]byte(paged))); got != golden[q] {
			t.Errorf("%s: answer is %q, golden %q", q, got, golden[q])
		}
		if domOrdered[q] {
			if want := domAnswer(t, doc, src); paged != want {
				t.Errorf("%s: answer (%d bytes) differs from the DOM's (%d bytes)", q, len(paged), len(want))
			}
		}
	}
}

// readGolden reads "QUERY BYTES SHA256" lines, skipping '#' comments.
func readGolden(t *testing.T, path string) map[QueryID]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[QueryID]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			out[QueryID(strings.Fields(line)[0])] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func answerPlan(t *testing.T, src string) *qgraph.Plan {
	t.Helper()
	plan, err := qgraph.Build(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func answerXML(t *testing.T, res *vectorize.MemRepository, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func pagedAnswer(t *testing.T, doc, src string) string {
	t.Helper()
	repo, err := vectorize.Create(strings.NewReader(doc), "repo", vectorize.Options{PoolPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	res, err := core.NewRepoEngine(repo, core.Options{Workers: 1}).Eval(context.Background(), answerPlan(t, src))
	return answerXML(t, res, err)
}

func memAnswer(t *testing.T, doc, src string) string {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc, syms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{}).Eval(context.Background(), answerPlan(t, src))
	return answerXML(t, res, err)
}

func domAnswer(t *testing.T, doc, src string) string {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	tree, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dom.NewEvaluator(tree, syms).Eval(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return xmlmodel.TreeString(out, syms)
}
