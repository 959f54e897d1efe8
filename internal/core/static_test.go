package core

import (
	"context"
	"strings"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
)

// Satisfiable plans: the checker must pass every edge and leave the engine
// untouched (no stats, no memo warmth — CheckPlan uses unmemoized
// resolution precisely so a later evaluation's MemoHits are unchanged).
func TestCheckPlanSatisfiable(t *testing.T) {
	for _, src := range []string{
		`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`,
		`for $x in /bib/*[author]//title return $x`,
		q0,
	} {
		eng, plan := traceEngine(t, bibXML, src, Options{})
		sc := eng.CheckPlan(plan)
		if sc.Empty {
			t.Errorf("%s: statically empty (%s), want satisfiable", src, sc.Reason)
		}
		if len(sc.Edges) == 0 {
			t.Errorf("%s: no edges checked", src)
		}
		for _, ec := range sc.Edges {
			if ec.Empty || ec.Classes == 0 {
				t.Errorf("%s: edge %s empty", src, ec.Edge)
			}
		}
	}
}

// Unsatisfiable plans: every kind of edge can make the plan statically
// empty when its path misses the catalog.
func TestCheckPlanUnsatisfiable(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // substring of the reason
	}{
		{`for $j in /bib/journal return $j`, "bind $j"},
		{`for $b in /bib/book where $b/isbn = '1' return $b`, "sel $b/isbn"},
		{`for $x in /bib/*[editor]//title return $x`, "exists $.h1/editor"},
		{`for $t in /bib/book/author/title return $t`, "bind $t"},
	} {
		eng, plan := traceEngine(t, bibXML, tc.src, Options{})
		sc := eng.CheckPlan(plan)
		if !sc.Empty {
			t.Errorf("%s: want statically empty, got satisfiable:\n%s", tc.src, sc)
			continue
		}
		if !strings.Contains(sc.Reason, tc.want) {
			t.Errorf("%s: reason %q, want mention of %q", tc.src, sc.Reason, tc.want)
		}
	}
}

// A statically empty query must short-circuit: empty result, no ops run,
// no vectors opened, not a single page faulted into the pool. The pool
// counters come from the process-wide obs registry, so this is the
// "zero vector-page faults" acceptance criterion measured end to end on a
// real on-disk repository.
func TestStaticEmptyShortCircuitsDiskRepo(t *testing.T) {
	dir := t.TempDir() + "/repo"
	repo, err := vectorize.Create(strings.NewReader(bibXML), dir, vectorize.Options{})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	defer repo.Close()

	eng, plan := traceEngine(t, bibXML, `for $j in /bib/journal/editor return $j`, Options{})
	_ = eng // plan only; evaluate on the disk-backed engine below
	diskEng := NewRepoEngine(repo, Options{})

	faults := obs.GetCounter("storage.pool.misses")
	reads := obs.GetCounter("storage.pool.pages_read")
	statics := obs.GetCounter("core.static_empty")
	f0, r0, s0 := faults.Load(), reads.Load(), statics.Load()

	res, tr, err := diskEng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if tr.Static == nil || !tr.Static.Empty {
		t.Fatalf("trace.Static = %+v, want statically empty", tr.Static)
	}
	if tr.Total != (obs.TaskCounters{StaticEmpty: 1}) || len(tr.Ops) != 0 {
		t.Errorf("trace total %+v ops %d, want only the short-circuit and none", tr.Total, len(tr.Ops))
	}
	if d := faults.Load() - f0; d != 0 {
		t.Errorf("pool misses moved by %d, want 0", d)
	}
	if d := reads.Load() - r0; d != 0 {
		t.Errorf("pool pages_read moved by %d, want 0", d)
	}
	if d := statics.Load() - s0; d != 1 {
		t.Errorf("core.static_empty moved by %d, want 1", d)
	}
	if got := resultXML(t, res); got != `<result/>` && got != `<result></result>` {
		t.Errorf("result = %s, want a bare empty root", got)
	}
	if !strings.HasPrefix(tr.Redacted(), "statically empty:") {
		t.Errorf("Redacted() = %q, want statically-empty header", tr.Redacted())
	}
}

// Explain surfaces the verdict without evaluating.
func TestExplainStaticallyEmpty(t *testing.T) {
	eng, plan := traceEngine(t, bibXML, `for $j in /bib/journal return $j`, Options{})
	got := eng.Explain(plan)
	if !strings.Contains(got, "static: statically empty: no catalog path matches bind $j := doc/bib/journal") {
		t.Errorf("Explain = %q, want static marker", got)
	}
}

// The per-edge report names the catalog paths a wildcard edge rewrites to.
func TestCheckPlanReportsCatalogPaths(t *testing.T) {
	eng, plan := traceEngine(t, bibXML, `for $x in /bib/* return $x`, Options{})
	sc := eng.CheckPlan(plan)
	if sc.Empty {
		t.Fatalf("want satisfiable, got empty: %s", sc.Reason)
	}
	report := sc.String()
	if !strings.Contains(report, "/bib/book") {
		t.Errorf("report %q should name the concrete catalog path /bib/book", report)
	}
}
