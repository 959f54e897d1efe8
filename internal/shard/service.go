package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
)

// Federation metrics, registered once at package scope.
var (
	obsScattered     = obs.GetCounter("shard.queries_scattered")
	obsUnionFallback = obs.GetCounter("shard.queries_union_fallback")
	obsMerges        = obs.GetCounter("shard.merges")
	obsStaticEmpty   = obs.GetCounter("shard.static_empty")
	obsDegraded      = obs.GetCounter("shard.degraded")
)

// Span names for the federation layer, one package-level const per name
// (enforced by the vxlint obsnames analyzer).
const (
	spanScatter    = "shard.scatter"
	spanShardQuery = "shard.shard_query"
	spanMerge      = "shard.merge"
	spanUnion      = "shard.union"
)

// OutcomeClass is core.OutcomeClass extended with the federation's
// "degraded" class for partial-shard failures.
func OutcomeClass(err error) string {
	var de *DegradedError
	if errors.As(err, &de) {
		return "degraded"
	}
	return core.OutcomeClass(err)
}

// DegradedError is a partial-shard failure: the federation could not
// assemble a full answer because one shard failed. It wraps the shard's
// typed error (quarantine fence, storage fault), so callers classify it
// with errors.Is exactly like a single-repository failure — a degraded
// response is always an error, never a partial merge served as a
// complete answer.
type DegradedError struct {
	// Shard is the failing shard's index.
	Shard int
	Err   error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard: degraded: shard %d: %v", e.Shard, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// NewService returns the serving layer over an opened federation. It is
// a core.Service like any other — its plan cache, single-flight,
// admission and result cache (keyed by the federation epoch, so an
// Append on any shard invalidates every older entry) work exactly as
// over one repository. Only a cache miss differs: a plan Shardable
// proves document-decomposable scatters to every shard and merges; any
// other plan evaluates on the union view.
func NewService(f *Federation, cfg core.ServiceConfig) *core.Service {
	m := &missEval{fed: f, opts: cfg.Opts}
	return core.NewEvalService(m.eval, f.Epoch, cfg)
}

// missEval evaluates a federation's cache misses.
type missEval struct {
	fed  *Federation
	opts core.Options

	unionMu    sync.Mutex
	union      *core.Engine // guarded by unionMu
	unionEpoch uint64       // guarded by unionMu
}

func (m *missEval) eval(ctx context.Context, plan *qgraph.Plan) (*core.Result, error) {
	eval := m.unionEval
	if ok, _ := Shardable(plan, m.fed.Catalog.RootTag); ok {
		eval = m.scatter
	}
	res, err := eval(ctx, plan)
	if err == nil && res.StaticallyEmpty {
		obsStaticEmpty.Inc()
	}
	return res, err
}

// scatter evaluates the plan on every shard concurrently, each on its
// own engine under its own "[shard k]" TaskMeter, then folds those
// meters into the caller's — live, the active-query registry sees each
// page under exactly one shard meter — and merges. The first real shard
// failure cancels its siblings and surfaces as a DegradedError.
func (m *missEval) scatter(ctx context.Context, plan *qgraph.Plan) (*core.Result, error) {
	obsScattered.Inc()
	fanCtx, fsp := obs.StartSpan(ctx, spanScatter)
	sctx, cancel := context.WithCancel(fanCtx)
	defer cancel()
	n := len(m.fed.Shards)
	parent := obs.MeterFrom(ctx)
	var (
		wg      sync.WaitGroup
		results = make([]*core.Result, n)
		errs    = make([]error, n)
		meters  = make([]obs.TaskMeter, n)
	)
	if parent != nil && parent.Query != "" {
		for k := range meters {
			meters[k].Query = fmt.Sprintf("[shard %d] %s", k, parent.Query)
		}
	}
	for k, repo := range m.fed.Shards {
		wg.Add(1)
		go func(k int, repo *vectorize.Repository) {
			defer wg.Done()
			qctx, ssp := obs.StartSpan(sctx, spanShardQuery)
			ssp.SetAttr(obs.Int("shard", int64(k)))
			defer ssp.End()
			qctx = obs.WithMeter(qctx, &meters[k])
			results[k], errs[k] = core.NewRepoEngine(repo, m.opts).EvalResult(qctx, plan)
			if errs[k] != nil {
				cancel()
			}
		}(k, repo)
	}
	wg.Wait()
	fsp.End()
	for k := range meters {
		parent.Add(meters[k].Counters())
	}
	if err := pickShardError(ctx, errs); err != nil {
		return nil, err
	}
	_, msp := obs.StartSpan(ctx, spanMerge)
	merged, err := MergeResults(results)
	msp.End()
	if err != nil {
		return nil, err
	}
	obsMerges.Inc()
	return merged, nil
}

// pickShardError reduces per-shard outcomes to the request's error: nil
// when every shard answered; the caller's own context error when the
// request died; otherwise the first shard's real failure wrapped as a
// DegradedError (cancellation echoes from the siblings scatter itself
// cancelled are skipped in favor of the failure that caused them).
func pickShardError(ctx context.Context, errs []error) error {
	failed := -1
	for k, err := range errs {
		if err == nil || isCancellation(err) {
			continue
		}
		failed = k
		break
	}
	if failed < 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		for k, err := range errs {
			if err != nil {
				failed = k
				break
			}
		}
		if failed < 0 {
			return nil
		}
	}
	obsDegraded.Inc()
	return &DegradedError{Shard: failed, Err: errs[failed]}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// unionEval evaluates a non-decomposable plan on the union view. The
// union engine reads shard vectors through MemRepository plumbing with
// no per-shard quarantine table, so a quarantined vector in any shard
// fails the query up front as a DegradedError instead of re-reading
// known-bad pages.
func (m *missEval) unionEval(ctx context.Context, plan *qgraph.Plan) (*core.Result, error) {
	obsUnionFallback.Inc()
	uctx, usp := obs.StartSpan(ctx, spanUnion)
	defer usp.End()
	for k, repo := range m.fed.Shards {
		if q := repo.Health.List(); len(q) > 0 {
			obsDegraded.Inc()
			return nil, &DegradedError{
				Shard: k,
				Err:   &core.QuarantinedError{Vector: q[0].Vector, Reason: q[0].Reason},
			}
		}
	}
	return m.unionEngine().EvalResult(uctx, plan)
}

// unionEngine returns the union-view engine, rebuilding it when any shard
// has appended since it was built. The view holds merged skeleton
// structure only — vector data stays in the shards and is read lazily —
// so a rebuild costs one skeleton walk per shard.
func (m *missEval) unionEngine() *core.Engine {
	epoch := m.fed.Epoch()
	m.unionMu.Lock()
	defer m.unionMu.Unlock()
	if m.union == nil || m.unionEpoch != epoch {
		m.union = core.NewMemEngine(buildUnionView(m.fed), m.opts)
		m.unionEpoch = epoch
	}
	return m.union
}

// Check runs the static checker against every shard's path catalog and
// rolls the verdicts up: an edge is empty for the federation only when
// it is empty in every shard (edge resolution distributes over the
// union), classes sum, and path samples union up to the same cap the
// single-shard checker uses.
func (f *Federation) Check(plan *qgraph.Plan) *core.StaticCheck {
	checks := make([]*core.StaticCheck, len(f.Shards))
	for k, repo := range f.Shards {
		checks[k] = core.NewRepoEngine(repo, core.Options{}).CheckPlan(plan)
	}
	out := &core.StaticCheck{}
	const maxPaths = 8
	for i := range checks[0].Edges {
		ec := core.EdgeCheck{Edge: checks[0].Edges[i].Edge, Empty: true}
		seen := make(map[string]bool)
		for _, sc := range checks {
			e := sc.Edges[i]
			ec.Classes += e.Classes
			if !e.Empty {
				ec.Empty = false
			}
			for _, p := range e.Paths {
				if !seen[p] && len(ec.Paths) < maxPaths {
					seen[p] = true
					ec.Paths = append(ec.Paths, p)
				}
			}
		}
		if ec.Empty && !out.Empty {
			out.Empty = true
			out.Reason = fmt.Sprintf("edge %d matches no catalog path in any shard", i)
		}
		out.Edges = append(out.Edges, ec)
	}
	return out
}
