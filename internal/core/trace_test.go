package core

import (
	"context"
	"strings"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// traceEngine parses and plans src against a fresh engine over doc.
func traceEngine(t testing.TB, doc, src string, opts Options) (*Engine, *qgraph.Plan) {
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
	return NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, opts), plan
}

// Golden EXPLAIN output for the paper's bib selection query. The rendered
// plan is stable API: the CLI, the serve trace endpoint, and these tests
// all consume the same format.
func TestExplainGoldenBib(t *testing.T) {
	eng, plan := traceEngine(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`, Options{})
	want := `plan:
 1. bind $b := doc/bib/book
 2. sel $b/publisher = 'SBP'
output: $b`
	if got := eng.Explain(plan); got != want {
		t.Errorf("Explain =\n%s\nwant\n%s", got, want)
	}
}

// Golden EXPLAIN ANALYZE for the same query, with wall times redacted via
// Trace.Redacted so the output is deterministic. Counters are exact: they
// depend only on the document and plan, never on timing.
func TestExplainAnalyzeGoldenBib(t *testing.T) {
	eng, plan := traceEngine(t, bibXML,
		`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`, Options{})
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	want := ` 1. bind $b := doc/bib/book
    time=- scanned=0 rows=+1 live-rows=1 tuples=0 vectors=+0 runs-expanded=0 index-hits=0 pages=0
 2. sel $b/publisher = 'SBP'
    time=- scanned=3 rows=+0 live-rows=1 tuples=0 vectors=+1 runs-expanded=0 index-hits=0 pages=0
 3. emit result
    time=- scanned=2 rows=+0 live-rows=1 tuples=2 vectors=+1 runs-expanded=0 index-hits=0 pages=0
total: time=- scanned=5 rows=1 tuples=2 vectors=2 runs-expanded=0 index-hits=0 pages=0`
	if got := tr.Redacted(); got != want {
		t.Errorf("Redacted trace =\n%s\nwant\n%s", got, want)
	}
	if got, want := resultXML(t, res), `<result><title>Curation</title><title>XML</title></result>`; got != want {
		t.Errorf("result = %s, want %s", got, want)
	}
}

// Golden EXPLAIN ANALYZE for a P[*,//] query: a wildcard step with an
// existence qualifier (compiled to a hidden variable + exists) followed by
// a descendant projection. Covers the bind/exists/proj-with-drop lines.
func TestExplainAnalyzeGoldenWildcardDescendant(t *testing.T) {
	eng, plan := traceEngine(t, bibXML, `for $x in /bib/*[author]//title return $x`, Options{})
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	wantPlan := `plan:
 1. bind $.h1 := doc/bib/*
 2. exists $.h1/author
 3. proj $x := $.h1//title [drop $.h1]
output: $x`
	if got := eng.Explain(plan); got != wantPlan {
		t.Errorf("Explain =\n%s\nwant\n%s", got, wantPlan)
	}
	want := ` 1. bind $.h1 := doc/bib/*
    time=- scanned=0 rows=+2 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0 pages=0
 2. exists $.h1/author
    time=- scanned=0 rows=+0 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0 pages=0
 3. proj $x := $.h1//title [drop $.h1]
    time=- scanned=0 rows=+2 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0 pages=0
 4. emit result
    time=- scanned=6 rows=+0 live-rows=2 tuples=6 vectors=+2 runs-expanded=0 index-hits=0 pages=0
total: time=- scanned=6 rows=4 tuples=6 vectors=2 runs-expanded=0 index-hits=0 pages=0`
	if got := tr.Redacted(); got != want {
		t.Errorf("Redacted trace =\n%s\nwant\n%s", got, want)
	}
	wantRes := `<result><title>Curation</title><title>XML</title><title>AXML</title>` +
		`<title>P2P</title><title>XStore</title><title>XPath</title></result>`
	if got := resultXML(t, res); got != wantRes {
		t.Errorf("result = %s, want %s", got, wantRes)
	}
}

// Per-op counter deltas must sum to the totals — the invariant that
// makes the trace a complete account of the evaluation — in memory and
// over a disk repository whose 4-page pool makes the ops fault pages:
// every page fault lands in some op's entry, so Explain Analyze says
// which op read what.
func TestTraceDeltasSumToTotal(t *testing.T) {
	check := func(name string, tr *Trace) {
		t.Helper()
		var sum obs.TaskCounters
		for _, op := range tr.Ops {
			sum.Add(op.Stats)
		}
		if sum != tr.Total {
			t.Errorf("%s: op deltas sum %+v != total %+v", name, sum, tr.Total)
		}
	}
	eng, plan := traceEngine(t, bibXML, q0, Options{})
	_, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	check("in memory", tr)

	dir := t.TempDir()
	repo, err := vectorize.Create(strings.NewReader(genBib(300)), dir, vectorize.Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if repo, err = vectorize.Open(dir, vectorize.Options{PoolPages: 4}); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	plan = planFor(t, `<result>
	 for $d in doc("bib.xml")/bib, $b in $d/book, $a in $d/article
	 where $b/author = $a/author and $b/publisher = 'P5'
	 return $b/title, $a/title
	 </result>`)
	meter := &obs.TaskMeter{}
	misses := obs.GetCounter("storage.pool.misses")
	m0 := misses.Load()
	_, tr, err = NewRepoEngine(repo, Options{}).EvalTraced(obs.WithMeter(context.Background(), meter), plan)
	if err != nil {
		t.Fatalf("disk eval: %v", err)
	}
	check("disk", tr)
	pages := tr.Total.PagesFaulted
	if pages == 0 || pages != meter.PagesFaulted() || pages != misses.Load()-m0 {
		t.Errorf("total pages %d, meter pages %d, pool misses %d: want equal and above 0", pages, meter.PagesFaulted(), misses.Load()-m0)
	}
	faulting := 0
	for _, op := range tr.Ops {
		if op.Stats.PagesFaulted > 0 {
			faulting++
		}
	}
	if faulting < 2 {
		t.Errorf("%d ops faulted pages, want at least 2:\n%s", faulting, tr.Redacted())
	}
}
