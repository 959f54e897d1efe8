package core

import (
	"context"
	"testing"

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
    time=- scanned=0 rows=+1 live-rows=1 tuples=0 vectors=+0 runs-expanded=0 index-hits=0
 2. sel $b/publisher = 'SBP'
    time=- scanned=3 rows=+0 live-rows=1 tuples=0 vectors=+1 runs-expanded=0 index-hits=0
 3. emit result
    time=- scanned=2 rows=+0 live-rows=1 tuples=2 vectors=+1 runs-expanded=0 index-hits=0
total: time=- scanned=5 rows=1 tuples=2 vectors=2 runs-expanded=0 index-hits=0`
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
    time=- scanned=0 rows=+2 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0
 2. exists $.h1/author
    time=- scanned=0 rows=+0 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0
 3. proj $x := $.h1//title [drop $.h1]
    time=- scanned=0 rows=+2 live-rows=2 tuples=0 vectors=+0 runs-expanded=0 index-hits=0
 4. emit result
    time=- scanned=6 rows=+0 live-rows=2 tuples=6 vectors=+2 runs-expanded=0 index-hits=0
total: time=- scanned=6 rows=4 tuples=6 vectors=2 runs-expanded=0 index-hits=0`
	if got := tr.Redacted(); got != want {
		t.Errorf("Redacted trace =\n%s\nwant\n%s", got, want)
	}
	wantRes := `<result><title>Curation</title><title>XML</title><title>AXML</title>` +
		`<title>P2P</title><title>XStore</title><title>XPath</title></result>`
	if got := resultXML(t, res); got != wantRes {
		t.Errorf("result = %s, want %s", got, wantRes)
	}
}

// Per-op stat deltas must sum to the totals — the invariant that makes the
// trace a complete account of the evaluation.
func TestTraceDeltasSumToTotal(t *testing.T) {
	eng, plan := traceEngine(t, bibXML, q0, Options{})
	_, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	var sum EvalStats
	for _, op := range tr.Ops {
		sum.add(op.Stats)
	}
	if sum != tr.Total {
		t.Errorf("op deltas sum %+v != total %+v", sum, tr.Total)
	}
	if tr.Total != eng.Stats() {
		t.Errorf("trace total %+v != engine stats %+v", tr.Total, eng.Stats())
	}
}

// statsQueries exercises every parallelizable path: plain selection,
// comparison selection, cross-table value join, descendant/wildcard
// projection, and the full q0.
var statsQueries = []string{
	`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`,
	`for $b in /bib/book where $b/title > 'B' return $b/publisher`,
	`for $x in /bib/*[author]//title return $x`,
	q0,
}

// TestEvalStatsParallelMatchesSerial audits the stats merge under worker
// parallelism: a parallel evaluation must produce byte-identical results
// AND identical counters to serial evaluation, every field of them.
// Run under -race this also audits the merge for data races.
func TestEvalStatsParallelMatchesSerial(t *testing.T) {
	for _, src := range statsQueries {
		serialEng, plan := traceEngine(t, bibXML, src, Options{})
		serialRes, err := serialEng.Eval(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: serial eval: %v", src, err)
		}
		parEng, parPlan := traceEngine(t, bibXML, src, Options{Workers: 8})
		parRes, err := parEng.Eval(context.Background(), parPlan)
		if err != nil {
			t.Fatalf("%s: parallel eval: %v", src, err)
		}
		if got, want := resultXML(t, parRes), resultXML(t, serialRes); got != want {
			t.Errorf("%s: parallel result %s != serial %s", src, got, want)
		}
		if s, p := serialEng.Stats(), parEng.Stats(); s != p {
			t.Errorf("%s: stats diverge under Workers=8\nserial   %+v\nparallel %+v", src, s, p)
		}
	}
}

// Same audit for the traced path: per-op deltas must still sum to the
// totals when scans fan out across workers.
func TestTracedStatsParallel(t *testing.T) {
	for _, src := range statsQueries {
		eng, plan := traceEngine(t, bibXML, src, Options{Workers: 8})
		_, tr, err := eng.EvalTraced(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: eval: %v", src, err)
		}
		var sum EvalStats
		for _, op := range tr.Ops {
			sum.add(op.Stats)
		}
		if sum != tr.Total {
			t.Errorf("%s: op deltas sum %+v != total %+v", src, sum, tr.Total)
		}
	}
}
