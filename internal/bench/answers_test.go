package bench

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
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
// matches by path class; SQ3 returns its later-bound variable) hold the
// DOM's result items in another order.
var domOrdered = map[QueryID]bool{
	KQ1: true, KQ2: true, KQ3: true, KQ4: true, TQ1: true,
	MQ1: true, MQ2: true, SQ1: true, SQ2: true, SQ4: true,
}

// TestTable3Answers pins the thirteen queries' result XML: the paged and
// the in-memory repository give the same bytes, and those bytes hash to
// the committed golden line.
func TestTable3Answers(t *testing.T) {
	golden := readGolden(t, "testdata/table3_answers.golden")
	eachAnswerQuery(t, func(q QueryID, doc, src string) {
		paged := pagedAnswer(t, doc, src)
		if mem := memAnswer(t, doc, src); mem != paged {
			t.Errorf("%s: in-memory answer (%d bytes) differs from the paged one (%d bytes)", q, len(mem), len(paged))
		}
		if got := fmt.Sprintf("%s %d %x", q, len(paged), sha256.Sum256([]byte(paged))); got != golden[q] {
			t.Errorf("%s: answer is %q, golden %q", q, got, golden[q])
		}
	})
}

// TestVXMatchesReference: every query's paged answer is the DOM
// interpreter's, byte for byte for an ordered query, as a multiset of
// result items otherwise.
func TestVXMatchesReference(t *testing.T) {
	eachAnswerQuery(t, func(q QueryID, doc, src string) {
		paged, want := pagedAnswer(t, doc, src), domAnswer(t, doc, src)
		if domOrdered[q] {
			if paged != want {
				t.Errorf("%s: answer (%d bytes) differs from the DOM's (%d bytes)", q, len(paged), len(want))
			}
		} else if got, want := resultItems(t, paged), resultItems(t, want); !slices.Equal(got, want) {
			t.Errorf("%s: answer's %d result items differ from the DOM's %d as a multiset", q, len(got)-1, len(want)-1)
		}
	})
}

// eachAnswerQuery calls f for each of the thirteen queries with its
// dataset's answer document, generating each document once.
func eachAnswerQuery(t *testing.T, f func(q QueryID, doc, src string)) {
	t.Helper()
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
		f(q, doc, QuerySources[q])
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
	res, err := core.NewRepoEngine(repo, core.Options{}).Eval(context.Background(), answerPlan(t, src))
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

// resultItems returns an answer's root tag followed by its top-level
// result items, each serialized, in sorted order: the answer as a
// multiset of items.
func resultItems(t *testing.T, answer string) []string {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(answer, syms)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]string, len(root.Kids))
	for i, k := range root.Kids {
		items[i] = xmlmodel.TreeString(k, syms)
	}
	slices.Sort(items)
	return append([]string{syms.Name(root.Tag)}, items...)
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
