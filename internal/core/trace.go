package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
)

// OpTrace records what one plan operation did: its rendered form, wall
// time, the stats counters it moved (a field-wise delta of EvalStats),
// and the live instantiation rows remaining after it ran.
type OpTrace struct {
	Op       string        // rendered operation, e.g. "sel $b/publisher = 'SBP'"
	Kind     string        // op kind: bind/proj/sel/exists/join/emit
	Wall     time.Duration // wall time including the op's DropAfter drops
	Stats    EvalStats     // counters attributable to this op
	LiveRows int64         // rows across surviving tables after the op
}

// Trace is the per-op account of one traced evaluation, in execution
// order; the final entry (Kind "emit") covers result construction.
type Trace struct {
	Ops   []OpTrace
	Wall  time.Duration // whole-evaluation wall time
	Total EvalStats     // final counters (equals the sum of op deltas)
	// Static is set when the static checker short-circuited the query:
	// no ops ran and the counters are all zero.
	Static *StaticCheck
}

// String renders the trace with timings — the EXPLAIN ANALYZE body.
func (t *Trace) String() string { return t.render(false) }

// Redacted renders the trace with every wall time replaced by "-" so the
// output is deterministic (golden tests); counters are kept, since they
// are reproducible run to run.
func (t *Trace) Redacted() string { return t.render(true) }

// render emits one line pair per op with a fixed field order:
//
//  1. sel $b/publisher = 'SBP'
//     time=182µs scanned=604 rows=+0 live-rows=1 tuples=0 vectors=+1 runs-expanded=0 index-hits=0
//
// followed by a total line. The field set and order are stable API for
// tests and tooling.
func (t *Trace) render(redact bool) string {
	var b strings.Builder
	dur := func(d time.Duration) string {
		if redact {
			return "-"
		}
		return d.Round(time.Microsecond).String()
	}
	if t.Static != nil && t.Static.Empty {
		fmt.Fprintf(&b, "statically empty: %s\n", t.Static.Reason)
	}
	for i, op := range t.Ops {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, op.Op)
		s := op.Stats
		fmt.Fprintf(&b, "    time=%s scanned=%d rows=%+d live-rows=%d tuples=%d vectors=%+d runs-expanded=%d index-hits=%d\n",
			dur(op.Wall), s.ValuesScanned, s.RowsProduced, op.LiveRows, s.Tuples, s.VectorsOpened, s.RunsExpanded, s.IndexHits)
	}
	s := t.Total
	fmt.Fprintf(&b, "total: time=%s scanned=%d rows=%d tuples=%d vectors=%d runs-expanded=%d index-hits=%d",
		dur(t.Wall), s.ValuesScanned, s.RowsProduced, s.Tuples, s.VectorsOpened, s.RunsExpanded, s.IndexHits)
	return b.String()
}

// Explain renders the plan as the engine will execute it, without running
// it: the query graph's ordered reduce steps plus the output variables.
// When the static checker proves the plan unsatisfiable against this
// repository's path catalog, a "statically empty" line says so — the plan
// would short-circuit without opening a vector.
func (e *Engine) Explain(plan *qgraph.Plan) string {
	var b strings.Builder
	b.WriteString("plan:\n")
	b.WriteString(plan.String())
	if sc := e.CheckPlan(plan); sc.Empty {
		fmt.Fprintf(&b, "\nstatic: statically empty: %s", sc.Reason)
	}
	return b.String()
}

// EvalTraced evaluates the plan like Eval while recording a per-op Trace.
// Tracing costs a clock read and a stats snapshot per plan operation —
// a handful per query — so it is safe to leave on for served queries.
func (e *Engine) EvalTraced(ctx context.Context, plan *qgraph.Plan) (*vectorize.MemRepository, *Trace, error) {
	out := vector.NewMemSet()
	tr := &Trace{}
	skel, err := e.evalWithSinkTraced(ctx, plan, vectorize.MemSink{Set: out}, tr)
	if err != nil {
		return nil, tr, err
	}
	return &vectorize.MemRepository{
		Syms:    e.Syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, e.Syms),
		Vectors: out,
	}, tr, nil
}

// ExplainAnalyze runs the plan to completion and renders the executed
// plan annotated with per-op wall times and counters. The result itself
// is discarded; use EvalTraced to keep both.
func (e *Engine) ExplainAnalyze(ctx context.Context, plan *qgraph.Plan) (string, error) {
	_, tr, err := e.EvalTraced(ctx, plan)
	if err != nil {
		return "", err
	}
	return tr.String(), nil
}

// Engine-level obs instrumentation: process-wide totals across every
// evaluation, alongside the per-eval EvalStats. Counters are resolved
// once; the per-query cost is a few atomic adds at evaluation end.
var (
	obsQueries  = obs.GetCounter("core.queries")
	obsErrors   = obs.GetCounter("core.query_errors")
	obsCancels  = obs.GetCounter("core.query_cancellations")
	obsValues   = obs.GetCounter("core.values_scanned")
	obsRows     = obs.GetCounter("core.rows_produced")
	obsTuples   = obs.GetCounter("core.tuples")
	obsIndexHit = obs.GetCounter("core.index_hits")
	obsRunsExp  = obs.GetCounter("core.runs_expanded")
	obsQueryDur = obs.GetHistogram("core.query_duration")
	// obsStaticEmpty counts queries the static checker short-circuited.
	obsStaticEmpty = obs.GetCounter("core.static_empty")

	obsOpCount = map[qgraph.OpKind]*obs.Counter{
		qgraph.OpBind:   obs.GetCounter("core.ops.bind"),
		qgraph.OpProj:   obs.GetCounter("core.ops.proj"),
		qgraph.OpSel:    obs.GetCounter("core.ops.sel"),
		qgraph.OpExists: obs.GetCounter("core.ops.exists"),
		qgraph.OpJoin:   obs.GetCounter("core.ops.join"),
	}
)

// publishObs folds one finished evaluation into the process-wide totals.
func publishObs(s EvalStats, wall time.Duration, err error) {
	obsQueries.Inc()
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		obsCancels.Inc()
	default:
		obsErrors.Inc()
	}
	obsValues.Add(s.ValuesScanned)
	obsRows.Add(s.RowsProduced)
	obsTuples.Add(s.Tuples)
	obsIndexHit.Add(s.IndexHits)
	obsRunsExp.Add(s.RunsExpanded)
	obsQueryDur.Observe(wall)
}
