package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// The heavy-traffic serving layer. A Service wraps a repository (or a
// federation of them, see shard.NewService) with the machinery that
// makes the paper's deterministic (S', V') query results pay off under
// concurrent load:
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
// outcome taxonomy used by span attributes and the HTTP surface's
// request records. A federation layers "degraded" on top via
// shard.OutcomeClass; the HTTP surface adds "bad_request" for parse
// failures it rejects before Query runs.
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
//
// A Result serializes lazily into one of two forms, each memoized: the
// wire form (JSON, what the HTTP surface serves) or the XML text (XML,
// for every other consumer). A served Result only ever builds the wire
// form, so a cached answer is held once, in the bytes every hit writes.
type Result struct {
	Repo  *vectorize.MemRepository
	Trace *Trace
	Stats obs.TaskCounters
	// Epoch is the repository append epoch the result was evaluated
	// under.
	Epoch uint64
	// StaticallyEmpty is set when the static checker proved the query
	// empty against the catalog and no operator ran.
	StaticallyEmpty bool

	xmlOnce sync.Once
	xml     string // written once under xmlOnce
	xmlErr  error  // written once under xmlOnce

	litOnce sync.Once
	lit     []byte // written once under litOnce
	litErr  error  // written once under litOnce
}

// XML serializes the result, memoized: every consumer of a shared Result
// gets the same bytes and the reconstruction runs once no matter how
// many times it is asked.
func (r *Result) XML() (string, error) {
	r.xmlOnce.Do(func() { r.xml, r.xmlErr = r.render() })
	return r.xml, r.xmlErr
}

// JSON returns the answer's wire form: the result XML as a JSON string
// literal, quotes included, exactly what encoding/json writes for XML's
// text. It is built on first use from its own reconstruction (the XML
// text is dropped, never memoized beside it) and memoized, so a cache
// hit costs a copy of these bytes and no escaping. Callers must not
// modify them.
func (r *Result) JSON() ([]byte, error) {
	r.litOnce.Do(func() {
		xml, err := r.render()
		if err == nil {
			r.lit, err = json.Marshal(xml)
		}
		r.litErr = err
	})
	return r.lit, r.litErr
}

func (r *Result) render() (string, error) {
	var b strings.Builder
	err := vectorize.ReconstructXML(r.Repo.Skel, r.Repo.Classes, r.Repo.Vectors, r.Repo.Syms, &b)
	return b.String(), err
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

// Prepared is a query text resolved through the plan cache: its plan,
// its canonical text (the result-cache key) and the text as spelled,
// folded onto one line for logs and traces. Prepared values are shared
// by the plan cache and never modified.
type Prepared struct {
	canon string
	text  string
	plan  *qgraph.Plan
}

// Plan returns the query's plan.
func (p *Prepared) Plan() *qgraph.Plan { return p.plan }

// Canonical returns the query's canonical text: the key the result cache
// uses.
func (p *Prepared) Canonical() string { return p.canon }

// Text returns the query as spelled, whitespace runs folded to one space.
func (p *Prepared) Text() string { return p.text }

// spelledAs returns p's plan under another spelling (trimmed raw text).
func (p *Prepared) spelledAs(trimmed string) *Prepared {
	return &Prepared{canon: p.canon, text: compactQuery(trimmed), plan: p.plan}
}

// compactQuery folds a query onto one line.
func compactQuery(q string) string {
	return strings.Join(strings.Fields(q), " ")
}

// Service serves queries with caching, single-flight and admission
// control; only how a miss is evaluated depends on what it serves (one
// repository, or a federation of them). All methods are safe for
// concurrent use.
type Service struct {
	cfg   ServiceConfig
	eval  func(ctx context.Context, plan *qgraph.Plan) (*Result, error)
	epoch func() uint64

	plans   *lru[string, *Prepared]  // nil when the plan cache is off
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
	return NewEvalService(func(ctx context.Context, plan *qgraph.Plan) (*Result, error) {
		return NewRepoEngine(repo, cfg.Opts).EvalResult(ctx, plan)
	}, repo.Epoch, cfg)
}

// NewMemService returns a serving layer over an in-memory repository,
// which never changes, so the epoch is constant.
func NewMemService(mem *vectorize.MemRepository, cfg ServiceConfig) *Service {
	return NewEvalService(func(ctx context.Context, plan *qgraph.Plan) (*Result, error) {
		return NewMemEngine(mem, cfg.Opts).EvalResult(ctx, plan)
	}, func() uint64 { return 0 }, cfg)
}

// NewEvalService returns a serving layer whose cache misses run eval and
// whose result cache keys on epoch, which must change whenever eval's
// answers may. eval returns a fresh Result per call; the Service stamps
// its Epoch before sharing it.
func NewEvalService(eval func(ctx context.Context, plan *qgraph.Plan) (*Result, error), epoch func() uint64, cfg ServiceConfig) *Service {
	s := &Service{
		cfg:     cfg,
		eval:    eval,
		epoch:   epoch,
		flights: make(map[resultKey]*flight),
	}
	if cfg.PlanCacheSize > 0 {
		s.plans = newLRU[string, *Prepared](cfg.PlanCacheSize)
	}
	if cfg.ResultCacheSize > 0 {
		s.results = newLRU[resultKey, *Result](cfg.ResultCacheSize)
	}
	return s
}

// Plan parses and plans the query through the plan cache.
func (s *Service) Plan(query string) (*qgraph.Plan, error) {
	p, err := s.Prepare(context.Background(), query)
	if err != nil {
		return nil, err
	}
	return p.plan, nil
}

// Prepare resolves a query text through the plan cache, under a core.plan
// span when ctx carries a trace. The cache is double-keyed: by trimmed
// raw text, so an exact repeat — the hot serving case — is one probe and
// skips the parser entirely, and by canonical form, so a
// differently-spelled variant of a cached query reuses its plan after
// only a parse. Each spelling gets its own entry, so Text is always the
// caller's spelling.
func (s *Service) Prepare(ctx context.Context, query string) (*Prepared, error) {
	_, sp := obs.StartSpan(ctx, spanPlan)
	defer sp.End()
	trimmed := strings.TrimSpace(query)
	if s.plans != nil {
		if p, ok := s.plans.get(trimmed); ok {
			obsPlanCacheHits.Inc()
			return p, nil
		}
	}
	parsed, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	canon := parsed.Canonical()
	if s.plans != nil {
		if p, ok := s.plans.get(canon); ok {
			obsPlanCacheHits.Inc()
			p = p.spelledAs(trimmed)
			s.plans.put(trimmed, p)
			return p, nil
		}
		obsPlanCacheMisses.Inc()
	}
	plan, err := qgraph.Build(parsed)
	if err != nil {
		return nil, err
	}
	p := &Prepared{canon: canon, text: compactQuery(canon), plan: plan}
	if s.plans != nil {
		s.plans.put(canon, p)
	}
	if trimmed != canon {
		p = p.spelledAs(trimmed)
		if s.plans != nil {
			s.plans.put(trimmed, p)
		}
	}
	return p, nil
}

// Query answers one query: through the result cache, by joining an
// identical in-flight evaluation, or by evaluating (subject to
// admission). The returned Source says which. Cached and follower
// answers charge the context's TaskMeter one CacheHit and nothing else —
// the request did no storage work of its own.
func (s *Service) Query(ctx context.Context, query string) (*Result, Source, error) {
	return s.query(ctx, query, nil)
}

// QueryPrepared is Query for a text already resolved by Prepare: it does
// no plan-cache work at all.
func (s *Service) QueryPrepared(ctx context.Context, p *Prepared) (*Result, Source, error) {
	return s.query(ctx, "", p)
}

// query answers p, or query when p is nil (preparing it under the
// core.query span).
func (s *Service) query(ctx context.Context, query string, p *Prepared) (res *Result, src Source, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A child of the caller's span: the HTTP surface (or a test) roots the
	// trace, and with no span on ctx this costs one context lookup.
	ctx, sp := obs.StartSpan(ctx, spanQuery)
	if p == nil {
		p, err = s.Prepare(ctx, query)
	}
	if err == nil {
		res, src, err = s.answer(ctx, p)
	}
	if sp != nil {
		sp.SetAttr(obs.Str("source", src.String()), obs.Str("outcome", OutcomeClass(err)))
		sp.End()
	}
	return res, src, err
}

// answer serves a prepared query through the result cache, single-flight
// and admission.
func (s *Service) answer(ctx context.Context, p *Prepared) (*Result, Source, error) {
	for {
		// The epoch is captured before the cache probe and before the
		// evaluation it may lead to, so a result computed while an
		// Append commits is stored under the pre-append key and can
		// never satisfy a post-append lookup.
		key := resultKey{canon: p.canon, epoch: s.epoch()}
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
			res, err := s.lead(ctx, p, key, f)
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
func (s *Service) lead(ctx context.Context, p *Prepared, key resultKey, f *flight) (res *Result, err error) {
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
	res, err = s.eval(ectx, p.plan)
	esp.End()
	if err != nil {
		return nil, err
	}
	res.Epoch = key.epoch
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
