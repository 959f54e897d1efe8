package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// The heavy-traffic serving layer. A Service wraps a repository with the
// machinery that makes the paper's deterministic (S', V') query results
// pay off under concurrent load:
//
//   - a plan cache: normalized query text parses and plans once;
//   - a result cache keyed (normalized query, append epoch), so an
//     Append structurally invalidates every older entry — a pre-append
//     result can never be served post-append because post-append lookups
//     use a key no pre-append evaluation ever wrote;
//   - single-flight collapsing: identical concurrent queries share one
//     evaluation, followers wait for the leader's result and charge their
//     own TaskMeters a zero-fault cache read;
//   - admission control against the live query registry: when in-flight
//     queries or their faulted pages exceed configured budgets, new work
//     queues for up to AdmitWait and is then shed with ErrOverloaded.
//
// Queries are normalized by parsing and re-rendering through
// xq.Query.Canonical — raw-text tricks like collapsing whitespace are
// unsound as cache keys because whitespace is significant inside string
// constants and template text.

// ErrOverloaded is returned when admission control sheds a query: the
// configured in-flight budgets were exhausted for the whole admission
// wait. The serving surface maps it to HTTP 429.
var ErrOverloaded = errors.New("core: too many in-flight queries, query shed")

// Source says where a Query answer came from.
type Source uint8

const (
	// SourceEval is a fresh evaluation by this request.
	SourceEval Source = iota
	// SourceResultCache is a result-cache hit.
	SourceResultCache
	// SourceFollower is a single-flight follower served the leader's
	// result.
	SourceFollower
)

// Cached reports whether the answer was served without evaluating.
func (s Source) Cached() bool { return s != SourceEval }

func (s Source) String() string {
	switch s {
	case SourceResultCache:
		return "result-cache"
	case SourceFollower:
		return "single-flight"
	default:
		return "eval"
	}
}

// Span names for the serving layer, one package-level const per name
// (enforced by the vxlint obsnames analyzer).
const (
	spanQuery      = "core.query"
	spanPlan       = "core.plan"
	spanCacheProbe = "core.cache_lookup"
	spanFlightWait = "core.singleflight_wait"
	spanAdmission  = "core.admission_wait"
	spanEval       = "core.eval"
)

// OutcomeClass buckets a completed query's error into the serving
// outcome taxonomy used by span attributes, trace-ring tail sampling,
// and the wide-event log. The shard coordinator layers "degraded" on
// top via shard.OutcomeClass; the HTTP surface adds "bad_request" for
// parse failures it rejects before Query runs.
func OutcomeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrQuarantined):
		return "quarantined"
	case errors.Is(err, ErrInternal):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// Serving-layer metrics, registered once at package scope.
var (
	obsPlanCacheHits     = obs.GetCounter("core.plan_cache_hits")
	obsPlanCacheMisses   = obs.GetCounter("core.plan_cache_misses")
	obsResultCacheHits   = obs.GetCounter("core.result_cache_hits")
	obsResultCacheMisses = obs.GetCounter("core.result_cache_misses")
	obsFlightFollowers   = obs.GetCounter("core.singleflight_followers")
	obsFlightRetries     = obs.GetCounter("core.singleflight_retries")
	obsQueriesShed       = obs.GetCounter("core.queries_shed")
	obsAdmissionWaits    = obs.GetCounter("core.admission_waits")
	obsAdmitInflight     = obs.GetGauge("core.admission_inflight")
	obsAdmitQueued       = obs.GetGauge("core.admission_queued")
)

// Result is one served answer: the vectorized result plus everything the
// serving surface reports about it. Results are immutable once built
// (MemRepository and Trace are never mutated after evaluation), so one
// Result is safely shared by the cache, the leader and any number of
// followers.
type Result struct {
	Repo  *vectorize.MemRepository
	Trace *Trace
	Stats EvalStats
	// Epoch is the repository append epoch the result was evaluated
	// under.
	Epoch uint64
	// StaticallyEmpty is set when the static checker proved the query
	// empty against the catalog and no operator ran.
	StaticallyEmpty bool

	xmlOnce sync.Once
	xml     string // written once under xmlOnce
	xmlErr  error  // written once under xmlOnce
}

// WithEpoch returns a shallow copy of r stamped with epoch. A Result may
// already be shared (cached, or held by another caller), so a layer that
// re-stamps one — the shard coordinator — stamps its own copy instead of
// writing to r. The copy serializes independently of r.
func (r *Result) WithEpoch(epoch uint64) *Result {
	return &Result{
		Repo:            r.Repo,
		Trace:           r.Trace,
		Stats:           r.Stats,
		Epoch:           epoch,
		StaticallyEmpty: r.StaticallyEmpty,
	}
}

// XML serializes the result, memoized: every consumer of a shared Result
// gets the same bytes and the reconstruction runs once no matter how
// many cache hits the entry serves.
func (r *Result) XML() (string, error) {
	r.xmlOnce.Do(func() {
		var b strings.Builder
		r.xmlErr = vectorize.ReconstructXML(r.Repo.Skel, r.Repo.Classes, r.Repo.Vectors, r.Repo.Syms, &b)
		r.xml = b.String()
	})
	return r.xml, r.xmlErr
}

// ServiceConfig sizes the serving layer. Zero values disable each
// feature, leaving Query equivalent to parse+plan+EvalTraced.
type ServiceConfig struct {
	// Opts are the engine options evaluations run with.
	Opts Options
	// PlanCacheSize bounds the plan cache in entries; <= 0 disables it.
	PlanCacheSize int
	// ResultCacheSize bounds the result cache in entries; <= 0 disables
	// it. Single-flight collapsing works either way.
	ResultCacheSize int
	// MaxInflight caps concurrently evaluating queries; <= 0 is
	// unlimited.
	MaxInflight int
	// MaxInflightPages sheds new evaluations while the live queries in
	// obs.ActiveQueries have faulted at least this many pages between
	// them; <= 0 is unlimited. At least one evaluation is always
	// admitted so the system can drain.
	MaxInflightPages int64
	// AdmitWait is how long an over-budget query queues before it is
	// shed with ErrOverloaded; 0 sheds immediately.
	AdmitWait time.Duration
}

// flight is one in-progress evaluation that identical queries attach to.
type flight struct {
	done chan struct{}
	res  *Result // written by the leader before close(done)
	err  error   // written by the leader before close(done)
}

type resultKey struct {
	canon string
	epoch uint64
}

type planEntry struct {
	canon string
	plan  *qgraph.Plan
}

// Service serves queries over one repository with caching, single-flight
// and admission control. All methods are safe for concurrent use.
type Service struct {
	cfg       ServiceConfig
	newEngine func() *Engine
	epoch     func() uint64

	plans   *lru[string, *planEntry] // nil when the plan cache is off
	results *lru[resultKey, *Result] // nil when the result cache is off

	flightMu sync.Mutex
	flights  map[resultKey]*flight // guarded by flightMu

	admitMu  sync.Mutex
	inflight int // guarded by admitMu
	queued   int // guarded by admitMu

	// testLeaderGate, when non-nil, is called by a single-flight leader
	// after it has claimed the flight and captured the epoch but before
	// it evaluates — tests park leaders here to build deterministic
	// interleavings (an Append racing a captured epoch, a full admission
	// queue). Never set outside tests.
	testLeaderGate func(canon string, epoch uint64)
}

// NewService returns a serving layer over an opened on-disk repository.
// The repository's append epoch drives result-cache invalidation.
func NewService(repo *vectorize.Repository, cfg ServiceConfig) *Service {
	return newService(func() *Engine { return NewRepoEngine(repo, cfg.Opts) }, repo.Epoch, cfg)
}

// NewMemService returns a serving layer over an in-memory repository,
// which never changes, so the epoch is constant.
func NewMemService(mem *vectorize.MemRepository, cfg ServiceConfig) *Service {
	return newService(func() *Engine { return NewMemEngine(mem, cfg.Opts) }, func() uint64 { return 0 }, cfg)
}

func newService(newEngine func() *Engine, epoch func() uint64, cfg ServiceConfig) *Service {
	s := &Service{
		cfg:       cfg,
		newEngine: newEngine,
		epoch:     epoch,
		flights:   make(map[resultKey]*flight),
	}
	if cfg.PlanCacheSize > 0 {
		s.plans = newLRU[string, *planEntry](cfg.PlanCacheSize)
	}
	if cfg.ResultCacheSize > 0 {
		s.results = newLRU[resultKey, *Result](cfg.ResultCacheSize)
	}
	return s
}

// Plan parses and plans the query through the plan cache.
func (s *Service) Plan(query string) (*qgraph.Plan, error) {
	pe, err := s.planFor(query)
	if err != nil {
		return nil, err
	}
	return pe.plan, nil
}

// Canonical returns the query's canonical text — the cache key the
// serving layer actually uses — through the plan cache, so an exact
// repeat costs one cache probe.
func (s *Service) Canonical(query string) (string, error) {
	pe, err := s.planFor(query)
	if err != nil {
		return "", err
	}
	return pe.canon, nil
}

// planFor resolves a query text to its cached plan entry. The cache is
// double-keyed: by trimmed raw text, so an exact repeat — the hot serving
// case — skips the parser entirely, and by canonical form, so a
// differently-spelled variant of a cached query reuses its plan after
// only a parse.
func (s *Service) planFor(query string) (*planEntry, error) {
	trimmed := strings.TrimSpace(query)
	if s.plans != nil {
		if pe, ok := s.plans.get(trimmed); ok {
			obsPlanCacheHits.Inc()
			return pe, nil
		}
	}
	parsed, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	canon := parsed.Canonical()
	if s.plans != nil {
		if pe, ok := s.plans.get(canon); ok {
			obsPlanCacheHits.Inc()
			s.plans.put(trimmed, pe)
			return pe, nil
		}
		obsPlanCacheMisses.Inc()
	}
	plan, err := qgraph.Build(parsed)
	if err != nil {
		return nil, err
	}
	pe := &planEntry{canon: canon, plan: plan}
	if s.plans != nil {
		s.plans.put(canon, pe)
		if trimmed != canon {
			s.plans.put(trimmed, pe)
		}
	}
	return pe, nil
}

// Query answers one query: through the result cache, by joining an
// identical in-flight evaluation, or by evaluating (subject to
// admission). The returned Source says which. Cached and follower
// answers charge the context's TaskMeter one CacheHit and nothing else —
// the request did no storage work of its own.
func (s *Service) Query(ctx context.Context, query string) (*Result, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Root-or-child: under the HTTP surface (or a federation coordinator)
	// the context already carries a span and core.query nests inside it;
	// called directly with the tracing gate on, this query roots its own
	// trace and owns offering it to the /debug/traces ring.
	ctx, sp, owned := obs.StartRequestSpan(ctx, spanQuery)
	res, src, err := s.queryTraced(ctx, query)
	if sp != nil {
		outcome := OutcomeClass(err)
		sp.SetAttr(obs.Str("source", src.String()), obs.Str("outcome", outcome))
		obs.FinishRequestSpan(sp, owned, strings.Join(strings.Fields(query), " "), outcome)
	}
	return res, src, err
}

func (s *Service) queryTraced(ctx context.Context, query string) (*Result, Source, error) {
	_, psp := obs.StartSpan(ctx, spanPlan)
	pe, err := s.planFor(query)
	psp.End()
	if err != nil {
		return nil, SourceEval, err
	}
	for {
		// The epoch is captured before the cache probe and before the
		// evaluation it may lead to, so a result computed while an
		// Append commits is stored under the pre-append key and can
		// never satisfy a post-append lookup.
		key := resultKey{canon: pe.canon, epoch: s.epoch()}
		_, csp := obs.StartSpan(ctx, spanCacheProbe)
		if s.results != nil {
			if r, ok := s.results.get(key); ok {
				obsResultCacheHits.Inc()
				obs.MeterFrom(ctx).CacheHit()
				csp.SetAttr(obs.Bool("hit", true))
				csp.End()
				return r, SourceResultCache, nil
			}
		}
		csp.SetAttr(obs.Bool("hit", false))
		csp.End()
		s.flightMu.Lock()
		f, joined := s.flights[key]
		if !joined {
			f = &flight{done: make(chan struct{})}
			s.flights[key] = f
		}
		s.flightMu.Unlock()
		if !joined {
			res, err := s.lead(ctx, pe, key, f)
			return res, SourceEval, err
		}
		obsFlightFollowers.Inc()
		_, wsp := obs.StartSpan(ctx, spanFlightWait)
		select {
		case <-ctx.Done():
			wsp.End()
			return nil, SourceFollower, ctx.Err()
		case <-f.done:
			wsp.End()
		}
		if f.err != nil {
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				if ctx.Err() == nil {
					// The leader's own request died; ours is alive, so
					// take another lap — likely as the new leader.
					obsFlightRetries.Inc()
					continue
				}
			}
			return nil, SourceFollower, f.err
		}
		obs.MeterFrom(ctx).CacheHit()
		return f.res, SourceFollower, nil
	}
}

// lead runs the flight's single evaluation and publishes the outcome to
// every follower.
func (s *Service) lead(ctx context.Context, pe *planEntry, key resultKey, f *flight) (res *Result, err error) {
	defer func() {
		f.res, f.err = res, err
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()
	_, asp := obs.StartSpan(ctx, spanAdmission)
	err = s.admit(ctx)
	asp.End()
	if err != nil {
		return nil, err
	}
	defer s.release()
	if gate := s.testLeaderGate; gate != nil {
		gate(key.canon, key.epoch)
	}
	if s.results != nil {
		obsResultCacheMisses.Inc()
	}
	ectx, esp := obs.StartSpan(ctx, spanEval)
	repo, tr, err := s.newEngine().EvalTraced(ectx, pe.plan)
	esp.End()
	if err != nil {
		return nil, err
	}
	res = &Result{
		Repo:            repo,
		Trace:           tr,
		Stats:           tr.Total,
		Epoch:           key.epoch,
		StaticallyEmpty: tr.Static != nil && tr.Static.Empty,
	}
	if s.results != nil {
		s.results.put(key, res)
	}
	return res, nil
}

// admitPoll is how often a queued query re-checks the budgets. Admission
// waits are a few milliseconds, so polling beats the bookkeeping of a
// waiter queue with per-waiter deadlines.
const admitPoll = 200 * time.Microsecond

// admit blocks until the query fits the in-flight budgets, the admission
// wait expires (ErrOverloaded) or ctx is done. Every admitted query must
// release.
func (s *Service) admit(ctx context.Context) error {
	limited := s.cfg.MaxInflight > 0 || s.cfg.MaxInflightPages > 0
	var deadline time.Time
	if limited {
		deadline = time.Now().Add(s.cfg.AdmitWait)
	}
	queued := false
	for {
		if s.tryAdmit(limited, &queued) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			s.dequeue()
			return err
		}
		if !time.Now().Before(deadline) {
			s.dequeue()
			obsQueriesShed.Inc()
			return ErrOverloaded
		}
		time.Sleep(admitPoll)
	}
}

// tryAdmit takes an admission slot if the budgets allow it, otherwise
// marking the query queued (counted once per admission attempt).
func (s *Service) tryAdmit(limited bool, queued *bool) bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if !limited || s.admissibleLocked() {
		s.inflight++
		obsAdmitInflight.Set(int64(s.inflight))
		if *queued {
			s.queued--
			obsAdmitQueued.Set(int64(s.queued))
		}
		return true
	}
	if !*queued {
		*queued = true
		s.queued++
		obsAdmitQueued.Set(int64(s.queued))
		obsAdmissionWaits.Inc()
	}
	return false
}

func (s *Service) dequeue() {
	s.admitMu.Lock()
	s.queued--
	obsAdmitQueued.Set(int64(s.queued))
	s.admitMu.Unlock()
}

func (s *Service) release() {
	s.admitMu.Lock()
	s.inflight--
	obsAdmitInflight.Set(int64(s.inflight))
	s.admitMu.Unlock()
}

// admissibleLocked checks the budgets; admitMu must be held. The pages
// budget always admits when nothing is in flight here, otherwise a burst
// of faults from an earlier query could wedge admission with no running
// query left to drain it.
//
//vx:locked admitMu
func (s *Service) admissibleLocked() bool {
	if s.cfg.MaxInflight > 0 && s.inflight >= s.cfg.MaxInflight {
		return false
	}
	if s.cfg.MaxInflightPages > 0 && s.inflight > 0 {
		if _, pages := obs.ActiveQueries.Inflight(); pages >= s.cfg.MaxInflightPages {
			return false
		}
	}
	return true
}
