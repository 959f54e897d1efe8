package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/xq"
)

// Federation metrics, registered once at package scope.
var (
	obsQueries       = obs.GetCounter("shard.queries")
	obsScattered     = obs.GetCounter("shard.queries_scattered")
	obsUnionFallback = obs.GetCounter("shard.queries_union_fallback")
	obsShardQueries  = obs.GetCounter("shard.shard_queries")
	obsMerges        = obs.GetCounter("shard.merges")
	obsStaticEmpty   = obs.GetCounter("shard.static_empty")
	obsDegraded      = obs.GetCounter("shard.degraded")
	obsShardRetries  = obs.GetCounter("shard.shard_retries")
	obsResultHits    = obs.GetCounter("shard.result_cache_hits")
	obsResultMisses  = obs.GetCounter("shard.result_cache_misses")
)

// Span names for the federation layer, one package-level const per name
// (enforced by the vxlint obsnames analyzer).
const (
	spanQuery      = "shard.query"
	spanPlan       = "shard.plan"
	spanCacheProbe = "shard.cache_lookup"
	spanScatter    = "shard.scatter"
	spanShardQuery = "shard.shard_query"
	spanMerge      = "shard.merge"
	spanUnion      = "shard.union"
)

// evShardRetry is the span event recorded when the coordinator re-asks
// a shard after a transient failure.
const evShardRetry = "shard.retry"

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
// typed error (quarantine fence, storage fault, overload), so callers
// classify it with errors.Is exactly like a single-repository failure —
// a degraded response is always an error, never a partial merge served
// as a complete answer.
type DegradedError struct {
	// Shard is the failing shard's index.
	Shard int
	Err   error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard: degraded: shard %d: %v", e.Shard, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// Config sizes a Coordinator. The cache and admission fields apply to
// each per-shard serving layer and to the union-view service; the
// coordinator additionally keeps its own plan cache and a merged-result
// cache of the same sizes, keyed by the federation epoch.
type Config struct {
	// Opts are the engine options per-shard evaluations run with.
	Opts core.Options
	// PlanCacheSize bounds each plan cache in entries; <= 0 disables.
	PlanCacheSize int
	// ResultCacheSize bounds each result cache in entries; <= 0 disables.
	ResultCacheSize int
	// MaxInflight caps concurrently evaluating queries per shard; <= 0 is
	// unlimited.
	MaxInflight int
	// MaxInflightPages is per-shard admission's faulted-pages budget.
	MaxInflightPages int64
	// AdmitWait is how long an over-budget shard query queues before it
	// is shed with core.ErrOverloaded.
	AdmitWait time.Duration
	// FanOut caps how many shards one query scatters to concurrently;
	// <= 0 means all at once.
	FanOut int
	// ShardRetries is how many times the coordinator re-asks a shard
	// whose answer was a transient read fault (on top of the buffer
	// pool's own per-read retries). 0 disables coordinator-level retry.
	ShardRetries int
}

// Coordinator answers queries over a federation through the same
// surface as core.Service: Plan and Query with (Result, Source, error).
// Decomposable queries scatter to every shard's serving layer
// concurrently and merge; the rest evaluate on the union view. All
// methods are safe for concurrent use.
type Coordinator struct {
	fed    *Federation
	cfg    Config
	shards []*core.Service

	plans   *lru[string, *coordPlan]
	results *lru[coordResultKey, *core.Result]

	unionMu    sync.Mutex
	union      *core.Service // guarded by unionMu
	unionEpoch uint64        // guarded by unionMu
}

type coordPlan struct {
	canon     string
	plan      *qgraph.Plan
	shardable bool
	reason    string // why not, when !shardable
}

type coordResultKey struct {
	canon string
	epoch uint64
}

// NewCoordinator builds the serving layer over an opened federation.
func NewCoordinator(f *Federation, cfg Config) *Coordinator {
	c := &Coordinator{fed: f, cfg: cfg}
	for _, repo := range f.Shards {
		c.shards = append(c.shards, core.NewService(repo, core.ServiceConfig{
			Opts:             cfg.Opts,
			PlanCacheSize:    cfg.PlanCacheSize,
			ResultCacheSize:  cfg.ResultCacheSize,
			MaxInflight:      cfg.MaxInflight,
			MaxInflightPages: cfg.MaxInflightPages,
			AdmitWait:        cfg.AdmitWait,
		}))
	}
	if cfg.PlanCacheSize > 0 {
		c.plans = newLRUCache[string, *coordPlan](cfg.PlanCacheSize)
	}
	if cfg.ResultCacheSize > 0 {
		c.results = newLRUCache[coordResultKey, *core.Result](cfg.ResultCacheSize)
	}
	return c
}

// Federation returns the coordinator's federation.
func (c *Coordinator) Federation() *Federation { return c.fed }

// Plan parses and plans the query through the coordinator's plan cache.
func (c *Coordinator) Plan(query string) (*qgraph.Plan, error) {
	cp, err := c.planFor(query)
	if err != nil {
		return nil, err
	}
	return cp.plan, nil
}

// Canonical returns the query's canonical text through the plan cache.
func (c *Coordinator) Canonical(query string) (string, error) {
	cp, err := c.planFor(query)
	if err != nil {
		return "", err
	}
	return cp.canon, nil
}

// Shardable reports whether the query scatters (true) or falls back to
// the union view, with the classifier's reason when it does not.
func (c *Coordinator) Shardable(query string) (bool, string, error) {
	cp, err := c.planFor(query)
	if err != nil {
		return false, "", err
	}
	return cp.shardable, cp.reason, nil
}

// planFor resolves query text to a cached plan plus its shardability
// verdict, double-keyed by trimmed raw text and canonical form like the
// core plan cache.
func (c *Coordinator) planFor(query string) (*coordPlan, error) {
	trimmed := strings.TrimSpace(query)
	if c.plans != nil {
		if cp, ok := c.plans.get(trimmed); ok {
			return cp, nil
		}
	}
	parsed, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	canon := parsed.Canonical()
	if c.plans != nil {
		if cp, ok := c.plans.get(canon); ok {
			c.plans.put(trimmed, cp)
			return cp, nil
		}
	}
	plan, err := qgraph.Build(parsed)
	if err != nil {
		return nil, err
	}
	ok, reason := Shardable(plan, c.fed.Catalog.RootTag)
	cp := &coordPlan{canon: canon, plan: plan, shardable: ok, reason: reason}
	if c.plans != nil {
		c.plans.put(canon, cp)
		if trimmed != canon {
			c.plans.put(trimmed, cp)
		}
	}
	return cp, nil
}

// Query answers one query over the federation. The merged-result cache
// is keyed (canonical query, federation epoch), so an Append on any
// shard structurally invalidates it; the epoch is captured before any
// shard work, so a result computed while an Append commits lands under
// the pre-append key.
func (c *Coordinator) Query(ctx context.Context, query string) (*core.Result, core.Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Root-or-child like core.Service: under the HTTP surface shard.query
	// nests in the request span; called directly with tracing on, the
	// coordinator roots the trace and owns its ring offer.
	ctx, sp, owned := obs.StartRequestSpan(ctx, spanQuery)
	res, src, err := c.queryTraced(ctx, query)
	if sp != nil {
		outcome := OutcomeClass(err)
		sp.SetAttr(obs.Str("source", src.String()), obs.Str("outcome", outcome))
		obs.FinishRequestSpan(sp, owned, strings.Join(strings.Fields(query), " "), outcome)
	}
	return res, src, err
}

func (c *Coordinator) queryTraced(ctx context.Context, query string) (*core.Result, core.Source, error) {
	obsQueries.Inc()
	_, psp := obs.StartSpan(ctx, spanPlan)
	cp, err := c.planFor(query)
	psp.End()
	if err != nil {
		return nil, core.SourceEval, err
	}
	key := coordResultKey{canon: cp.canon, epoch: c.fed.Epoch()}
	_, csp := obs.StartSpan(ctx, spanCacheProbe)
	if c.results != nil {
		if r, ok := c.results.get(key); ok {
			obsResultHits.Inc()
			obs.MeterFrom(ctx).CacheHit()
			csp.SetAttr(obs.Bool("hit", true))
			csp.End()
			return r, core.SourceResultCache, nil
		}
		obsResultMisses.Inc()
	}
	csp.SetAttr(obs.Bool("hit", false))
	csp.End()
	var (
		res *core.Result
		src core.Source
	)
	if cp.shardable {
		res, src, err = c.scatter(ctx, query)
	} else {
		res, src, err = c.unionQuery(ctx, query)
	}
	if err != nil {
		return nil, src, err
	}
	// The union service may hand back its own cached Result, which other
	// callers read concurrently: stamp a copy this coordinator owns.
	res = res.WithEpoch(key.epoch)
	if res.StaticallyEmpty {
		obsStaticEmpty.Inc()
	}
	if c.results != nil {
		c.results.put(key, res)
	}
	return res, src, nil
}

// scatter fans the query out to every shard's serving layer (bounded by
// FanOut), retries transient shard failures, folds per-shard meters
// into the request meter, and merges. Any unrecoverable shard failure
// cancels the remaining shards and surfaces as a DegradedError.
func (c *Coordinator) scatter(ctx context.Context, query string) (*core.Result, core.Source, error) {
	obsScattered.Inc()
	start := time.Now()
	fanCtx, fsp := obs.StartSpan(ctx, spanScatter)
	sctx, cancel := context.WithCancel(fanCtx)
	defer cancel()
	n := len(c.shards)
	fan := c.cfg.FanOut
	if fan <= 0 || fan > n {
		fan = n
	}
	qtext := obs.QueryTextFrom(ctx)
	if qtext == "" {
		qtext = strings.Join(strings.Fields(query), " ")
	}
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, fan)
		results  = make([]*core.Result, n)
		sources  = make([]core.Source, n)
		errs     = make([]error, n)
		meters   = make([]*obs.TaskMeter, n)
		attempts = make([]int64, n) // coordinator-level retries per shard
	)
	for k := range c.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := sctx.Err(); err != nil {
				errs[k] = err
				return
			}
			m := &obs.TaskMeter{}
			meters[k] = m
			sqctx, ssp := obs.StartSpan(sctx, spanShardQuery)
			ssp.SetAttr(obs.Int("shard", int64(k)))
			defer ssp.End()
			qctx := obs.WithMeter(obs.WithQueryText(sqctx, fmt.Sprintf("[shard %d] %s", k, qtext)), m)
			for attempt := 0; ; attempt++ {
				res, src, err := c.shards[k].Query(qctx, query)
				if err == nil {
					results[k], sources[k] = res, src
					return
				}
				if attempt >= c.cfg.ShardRetries || !storage.IsTransientRead(err) || sctx.Err() != nil {
					errs[k] = err
					cancel()
					return
				}
				obsShardRetries.Inc()
				m.ShardRetry()
				attempts[k]++
				ssp.Event(evShardRetry, obs.Int("shard", int64(k)), obs.Int("attempt", int64(attempt+1)), obs.Str("error", err.Error()))
			}
		}(k)
	}
	wg.Wait()
	fsp.End()
	obsShardQueries.Add(int64(n))
	parent := obs.MeterFrom(ctx)
	for _, m := range meters {
		if m != nil {
			parent.Add(m.Counters())
		}
	}
	if err := pickShardError(ctx, errs); err != nil {
		c.captureSlow(ctx, qtext, start, meters, errs, attempts, err)
		return nil, core.SourceEval, err
	}
	_, msp := obs.StartSpan(ctx, spanMerge)
	merged, err := MergeResults(results)
	msp.End()
	if err != nil {
		return nil, core.SourceEval, err
	}
	obsMerges.Inc()
	c.captureSlow(ctx, qtext, start, meters, errs, attempts, nil)
	// The answer is "cached" only if every shard's was; the merge itself
	// is recomputed, but no shard did storage work.
	src := core.SourceResultCache
	for _, s := range sources {
		if !s.Cached() {
			src = core.SourceEval
			break
		}
	}
	return merged, src, nil
}

// captureSlow records a coordinator-level slow-ring entry with per-shard
// attribution: which shard did which work, which shard failed, and how
// many coordinator-level retries each one cost. Degraded queries are
// always captured (they are exactly what an operator inspects the ring
// for); healthy queries are captured under the ring's usual wall/pages
// thresholds.
func (c *Coordinator) captureSlow(ctx context.Context, qtext string, start time.Time, meters []*obs.TaskMeter, errs []error, attempts []int64, err error) {
	wall := time.Since(start)
	var total obs.TaskCounters
	agg := &obs.TaskMeter{}
	for _, m := range meters {
		if m != nil {
			agg.Add(m.Counters())
		}
	}
	total = agg.Counters()
	var de *DegradedError
	degraded := errors.As(err, &de)
	if !degraded && !obs.SlowQueries.ShouldCapture(wall, total.PagesFaulted) {
		return
	}
	rec := obs.SlowQueryRecord{
		Query:    qtext,
		Start:    start,
		WallUS:   wall.Microseconds(),
		Counters: total,
		TraceID:  obs.SpanFrom(ctx).TraceID(),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	for k := range meters {
		ss := obs.SlowShard{Shard: k, Counters: meters[k].Counters(), Retries: attempts[k]}
		// A sibling the coordinator cancelled after another shard failed
		// only echoes that failure; its row names no error of its own.
		if errs[k] != nil && !(degraded && k != de.Shard && isCancellation(errs[k])) {
			ss.Error = errs[k].Error()
		}
		rec.ShardRetries += attempts[k]
		rec.Shards = append(rec.Shards, ss)
	}
	obs.SlowQueries.Record(rec)
}

// pickShardError reduces per-shard outcomes to the request's error: nil
// when every shard answered; the caller's own context error when the
// request died; otherwise the first shard's real failure wrapped as a
// DegradedError (cancellation echoes from the shards the coordinator
// itself cancelled are skipped in favor of the failure that caused
// them).
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

// unionQuery evaluates a non-decomposable query on the union view. The
// union engine runs over MemRepository plumbing with no per-shard
// quarantine table, so the coordinator fences degraded shards up front:
// any quarantined vector anywhere fails the query fast with a typed
// degraded response instead of re-reading known-bad pages.
func (c *Coordinator) unionQuery(ctx context.Context, query string) (*core.Result, core.Source, error) {
	obsUnionFallback.Inc()
	uctx, usp := obs.StartSpan(ctx, spanUnion)
	defer usp.End()
	for k, repo := range c.fed.Shards {
		if q := repo.Health.List(); len(q) > 0 {
			obsDegraded.Inc()
			derr := &DegradedError{
				Shard: k,
				Err:   &core.QuarantinedError{Vector: q[0].Vector, Reason: q[0].Reason},
			}
			// Fence refusals get the same shard attribution in the slow
			// ring as a scatter-path degradation.
			obs.SlowQueries.Record(obs.SlowQueryRecord{
				Query:   strings.Join(strings.Fields(query), " "),
				Start:   time.Now(),
				Error:   derr.Error(),
				TraceID: obs.SpanFrom(ctx).TraceID(),
				Shards:  []obs.SlowShard{{Shard: k, Error: derr.Err.Error()}},
			})
			return nil, core.SourceEval, derr
		}
	}
	svc, err := c.unionService()
	if err != nil {
		return nil, core.SourceEval, err
	}
	return svc.Query(uctx, query)
}

// unionService returns the union-view serving layer, rebuilding it when
// any shard has appended since it was built. The view holds merged
// skeleton structure only — vector data stays in the shards and is read
// lazily — so a rebuild costs one skeleton walk per shard.
func (c *Coordinator) unionService() (*core.Service, error) {
	epoch := c.fed.Epoch()
	c.unionMu.Lock()
	defer c.unionMu.Unlock()
	if c.union == nil || c.unionEpoch != epoch {
		c.union = newUnionService(c.fed, c.cfg)
		c.unionEpoch = epoch
	}
	return c.union, nil
}

// Check runs the static checker against every shard's path catalog and
// rolls the verdicts up: an edge is empty for the federation only when
// it is empty in every shard (edge resolution distributes over the
// union), classes sum, and path samples union up to the same cap the
// single-shard checker uses.
func (c *Coordinator) Check(plan *qgraph.Plan) *core.StaticCheck {
	checks := make([]*core.StaticCheck, len(c.fed.Shards))
	for k, repo := range c.fed.Shards {
		checks[k] = core.NewRepoEngine(repo, c.cfg.Opts).CheckPlan(plan)
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
