package bench

import (
	"context"
	"testing"

	"vxml/internal/core"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// traceSetup opens the quick XMark dataset and plans q once, returning a
// factory for fresh engines (tracing comparisons must not share memo
// warmth between the traced and untraced runs).
func traceSetup(t testing.TB, q QueryID) (func() *core.Engine, *qgraph.Plan) {
	t.Helper()
	h := quickHarness(t)
	d, err := h.Dataset(XK)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: h.Cfg.PoolPages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	plan, err := qgraph.Build(xq.MustParse(QuerySources[q]))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *core.Engine {
		return core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, core.Options{})
	}
	return mk, plan
}

// BenchmarkTraceOverhead measures EvalTraced against Eval on the XMark
// quick dataset — the number behind the EXPERIMENTS.md claim that tracing
// is cheap enough to leave on for served queries. Tracing adds one clock
// read and one stats snapshot per plan op (a handful per query), so the
// two sub-benchmarks should be within noise of each other.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, mode := range []string{"eval", "eval-traced"} {
		b.Run(mode, func(b *testing.B) {
			mk, plan := traceSetup(b, KQ1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := mk()
				var err error
				if mode == "eval" {
					_, err = eng.Eval(context.Background(), plan)
				} else {
					_, _, err = eng.EvalTraced(context.Background(), plan)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraceOverheadBounded compares traced and untraced evaluations of
// KQ1, each on a fresh engine, through the paired measurement of
// TestSpanOverheadBounded. The CI assertion is deliberately loose (25%) —
// shared runners are noisy — while the real measurement for
// EXPERIMENTS.md comes from BenchmarkTraceOverhead on quiet hardware;
// this test exists to catch a rewrite that makes tracing accidentally
// O(rows).
func TestTraceOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	mk, plan := traceSetup(t, KQ1)
	plain := func() {
		if _, err := mk().Eval(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() {
		if _, _, err := mk().EvalTraced(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
	}
	requireOverheadBounded(t, "trace overhead", plain, traced)
}
