// Package serve is the HTTP serving surface over one vectorized
// repository or one sharded federation: POST /query evaluates XQ queries
// (JSON in, JSON out, with optional per-op traces), GET /metrics exposes
// the obs registry (JSON by default, Prometheus text exposition with
// Accept: text/plain), and /debug/pprof and /debug/vars mount the stdlib
// profiling handlers. One engine is built per request (the
// engine-per-query serving pattern from the concurrency work), so
// requests never share mutable state beyond the repository's own
// concurrency-safe read path. Queries answer through one core.Service —
// plan cache, result cache, single-flight and admission — whichever the
// server fronts. With Config.Federation set that Service is
// shard.NewService's, whose cache misses scatter to every shard and
// merge (or run on the union view); /healthz rolls per-shard health up,
// and GET /debug/shards reports per-shard status.
//
// Query-scoped telemetry rides every request: each evaluation carries a
// per-query obs.TaskMeter, GET /debug/queries lists the in-flight
// queries with their live counters, POST /debug/queries/{id}/cancel
// cancels one cooperatively, and GET /debug/slow serves the ring of
// recently captured slow queries (over the latency or pages-faulted
// threshold) with their final counters and redacted traces.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// Config configures a Server. Zero values mean: no request timeout cap,
// no slow-query log, log to the standard logger.
type Config struct {
	Repo *vectorize.Repository
	// Federation switches the server into sharded mode: queries answer
	// through shard.NewService over this federation instead of a
	// single-repository service, /healthz rolls shard health up, and
	// GET /debug/shards reports per-shard status. Repo is ignored when
	// Federation is set.
	Federation *shard.Federation
	// Timeout caps each request's evaluation time; requests may ask for
	// less via timeout_ms but never more. 0 = no cap.
	Timeout time.Duration
	// SlowQuery logs any query slower than this and captures it into the
	// slow-query ring (GET /debug/slow). 0 disables the latency trigger.
	SlowQuery time.Duration
	// SlowPages captures any query faulting at least this many buffer-pool
	// pages into the slow-query ring, regardless of latency. 0 disables
	// the pages trigger.
	SlowPages int64
	// SlowRingSize is how many captured slow queries /debug/slow retains
	// (oldest evicted first). 0 means the default of 64.
	SlowRingSize int
	// Log receives slow-query and server lifecycle lines; nil uses the
	// process default logger.
	Log *log.Logger
	// PlanCacheSize bounds the plan cache in entries; 0 disables it.
	PlanCacheSize int
	// ResultCacheSize bounds the result cache in entries; 0 disables it.
	// Entries are invalidated structurally by the repository's (or the
	// federation's) append epoch, so a cached answer is never stale.
	ResultCacheSize int
	// MaxInflight caps concurrently evaluating queries; over the cap new
	// queries queue for AdmitWait and are then shed with 429. 0 = no cap.
	MaxInflight int
	// MaxInflightPages sheds new evaluations while in-flight queries have
	// faulted at least this many pages between them. 0 = no cap.
	MaxInflightPages int64
	// AdmitWait is how long an over-budget query queues before the 429.
	AdmitWait time.Duration
	// ReadRetries overrides the buffer pool's transient-read retry count:
	// > 0 sets it, < 0 disables retrying, 0 keeps the storage default.
	ReadRetries int
	// RetryBackoff overrides the initial retry backoff; 0 keeps the
	// storage default.
	RetryBackoff time.Duration
	// Tracing enables end-to-end request tracing: every /query request
	// gets a span tree (rooted from an incoming W3C traceparent header
	// when present, minted fresh otherwise), the trace ID echoes in the
	// Traceparent response header, and sampled traces land in the
	// GET /debug/traces ring. Off by default — with it off the request
	// path is unchanged.
	Tracing bool
	// TraceRingSize is how many sampled traces /debug/traces retains;
	// 0 means the default of 128. Only meaningful with Tracing.
	TraceRingSize int
	// TraceSample keeps 1-in-N healthy traces in the ring (head
	// sampling); slow, degraded, shed, quarantined and panicked traces
	// are always kept (tail sampling). 0 means the default of 16; 1
	// keeps everything. Only meaningful with Tracing.
	TraceSample int64
	// TraceExport, when non-nil, receives every completed trace as one
	// OTLP-shaped JSON object per line. Only meaningful with Tracing.
	TraceExport io.Writer
	// WideEvents, when non-nil, receives one structured JSON record per
	// completed /query request: trace ID, canonical query, cache source,
	// shard fan-out, the degraded shard, every TaskMeter counter, and the
	// outcome class.
	WideEvents io.Writer
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Query string `json:"query"`
	// TimeoutMS caps this request's evaluation; it is clipped to the
	// server's Timeout when that is set.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks for the per-op trace in the response.
	Trace bool `json:"trace,omitempty"`
	// Check asks for static validation only: the query's path edges are
	// matched against the repository's path catalog and nothing is
	// evaluated. The response carries the per-edge report in result and
	// the verdict in statically_empty.
	Check bool `json:"check,omitempty"`
}

// QueryStats mirrors core.EvalStats in the response.
type QueryStats struct {
	VectorsOpened int   `json:"vectors_opened"`
	ValuesScanned int64 `json:"values_scanned"`
	RowsProduced  int64 `json:"rows_produced"`
	Tuples        int64 `json:"tuples"`
	RunsExpanded  int64 `json:"runs_expanded"`
	IndexHits     int64 `json:"index_hits"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Result    string     `json:"result"`
	ElapsedUS int64      `json:"elapsed_us"`
	Stats     QueryStats `json:"stats"`
	Trace     []OpTrace  `json:"trace,omitempty"`
	// StaticallyEmpty reports the static checker's verdict: the query
	// matched no catalog path and was answered (or, with Check, would be
	// answered) without evaluation.
	StaticallyEmpty bool `json:"statically_empty,omitempty"`
	// Cached reports that the answer was served without evaluating:
	// from the result cache or from an identical in-flight evaluation.
	Cached bool `json:"cached,omitempty"`
	// Source says how the answer was produced: "eval", "result-cache" or
	// "single-flight".
	Source string `json:"source,omitempty"`
}

// OpTrace is one traced plan operation in the response.
type OpTrace struct {
	Op       string     `json:"op"`
	Kind     string     `json:"kind"`
	WallUS   int64      `json:"wall_us"`
	LiveRows int64      `json:"live_rows"`
	Stats    QueryStats `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// spanRequest is the HTTP request root span (vxlint obsnames: span
// names are package-level consts).
const spanRequest = "serve.request"

// Server serves queries over one repository or one federation.
type Server struct {
	cfg      Config
	svc      *core.Service
	exporter *obs.TraceExporter // non-nil iff cfg.TraceExport set
	mux      *http.ServeMux
	wideMu   sync.Mutex // serializes wide-event lines on cfg.WideEvents
	// draining flips when graceful shutdown begins: /healthz answers 503
	// from then on so load balancers stop routing while in-flight
	// requests finish.
	draining atomic.Bool
}

// Metrics are process-global (the obs registry aggregates across servers),
// so they are registered once at package scope, not per Server value.
var (
	obsRequests = obs.GetCounter("serve.requests")
	obsErrors   = obs.GetCounter("serve.request_errors")
	obsSlow     = obs.GetCounter("serve.slow_queries")
	obsShed     = obs.GetCounter("serve.queries_shed")
	obsLatency  = obs.GetHistogram("serve.request_duration")
)

// New builds a Server for cfg. cfg.Repo must be non-nil.
func New(cfg Config) *Server {
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	if cfg.SlowRingSize == 0 {
		cfg.SlowRingSize = 64
	}
	// The slow ring is process-global (evaluations capture into it from
	// the engine, below the HTTP layer); the server owns its thresholds.
	obs.SlowQueries.Configure(cfg.SlowQuery, cfg.SlowPages, cfg.SlowRingSize)
	if cfg.Tracing {
		if cfg.TraceRingSize == 0 {
			cfg.TraceRingSize = 128
		}
		if cfg.TraceSample == 0 {
			cfg.TraceSample = 16
		}
		// Tail sampling reuses the slow-query threshold: a trace worth a
		// slow-ring entry is worth keeping whole.
		obs.Traces.Configure(cfg.TraceRingSize, cfg.TraceSample, cfg.SlowQuery)
	}
	if cfg.ReadRetries != 0 || cfg.RetryBackoff != 0 {
		rp := storage.DefaultRetryPolicy
		switch {
		case cfg.ReadRetries < 0:
			rp.Retries = 0
		case cfg.ReadRetries > 0:
			rp.Retries = cfg.ReadRetries
		}
		if cfg.RetryBackoff > 0 {
			rp.Backoff = cfg.RetryBackoff
		}
		if cfg.Federation != nil {
			for _, repo := range cfg.Federation.Shards {
				repo.Store.Pool().SetRetryPolicy(rp)
			}
		} else if cfg.Repo != nil {
			cfg.Repo.Store.Pool().SetRetryPolicy(rp)
		}
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.TraceExport != nil {
		s.exporter = obs.NewTraceExporter(cfg.TraceExport, "")
	}
	scfg := core.ServiceConfig{
		PlanCacheSize:    cfg.PlanCacheSize,
		ResultCacheSize:  cfg.ResultCacheSize,
		MaxInflight:      cfg.MaxInflight,
		MaxInflightPages: cfg.MaxInflightPages,
		AdmitWait:        cfg.AdmitWait,
	}
	if cfg.Federation != nil {
		s.svc = shard.NewService(cfg.Federation, scfg)
	} else {
		s.svc = core.NewService(cfg.Repo, scfg)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/debug/queries", s.handleQueries)
	s.mux.HandleFunc("/debug/queries/", s.handleQueryCancel)
	s.mux.HandleFunc("/debug/slow", s.handleSlow)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.HandleFunc("/debug/panics", s.handlePanics)
	s.mux.HandleFunc("/debug/quarantine/clear", s.handleQuarantineClear)
	s.mux.HandleFunc("/debug/shards", s.handleShards)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s
}

// Handler returns the server's routing handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves on ln until ctx is cancelled, then shuts down gracefully
// (in-flight requests get drainTimeout to finish). It returns nil on a
// clean shutdown.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	const drainTimeout = 5 * time.Second
	srv := &http.Server{
		Handler: s.mux,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts descend from ctx, so cancelling the server
			// cancels every in-flight evaluation too.
			return ctx
		},
	}
	errc := make(chan error, 1)
	// Serve returns once Shutdown below runs; errc is buffered so the send
	// never blocks.
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Flip /healthz to draining before Shutdown so load balancers see
		// the 503 for the whole drain window.
		s.draining.Store(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		<-errc // Serve returns ErrServerClosed after Shutdown
		return err
	}
}

// ListenAndRun listens on addr and calls Run. The actual address (useful
// with ":0") is logged and also sent on ready when non-nil.
func (s *Server) ListenAndRun(ctx context.Context, addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Log.Printf("serve: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Run(ctx, ln)
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	// Status is "ok", "degraded" (quarantined vectors exist; still
	// serving — queries not touching them succeed) or "draining"
	// (graceful shutdown in progress; served with 503 so load balancers
	// stop routing).
	Status      string                    `json:"status"`
	Quarantined []storage.QuarantineEntry `json:"quarantined,omitempty"`
	// Shards rolls per-shard health up in federation mode: one row per
	// shard, with that shard's quarantine entries. The federation is
	// degraded as soon as any shard is — scattered queries touching a
	// fenced shard answer degraded, not partially.
	Shards []shardHealth `json:"shards,omitempty"`
}

// shardHealth is one shard's row in the /healthz rollup.
type shardHealth struct {
	Shard       int                       `json:"shard"`
	Status      string                    `json:"status"`
	Quarantined []storage.QuarantineEntry `json:"quarantined,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok"}
	status := http.StatusOK
	if s.cfg.Federation != nil {
		for k, repo := range s.cfg.Federation.Shards {
			sh := shardHealth{Shard: k, Status: "ok"}
			if q := repo.Health.List(); len(q) > 0 {
				sh.Status = "degraded"
				sh.Quarantined = q
				resp.Status = "degraded"
			}
			resp.Shards = append(resp.Shards, sh)
		}
	} else if s.cfg.Repo != nil {
		if q := s.cfg.Repo.Health.List(); len(q) > 0 {
			resp.Status = "degraded"
			resp.Quarantined = q
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleShards serves the federation's per-shard status (directory,
// document count, epoch, class/vector counts, quarantine list).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Federation == nil {
		s.fail(w, http.StatusUnprocessableEntity, errors.New("not serving a federation"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.cfg.Federation.Status())
}

// handlePanics serves the captured query panics, most recent first.
func (s *Server) handlePanics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.Panics.List())
}

// handleQuarantineClear handles POST /debug/quarantine/clear: every
// quarantined vector is re-verified from disk, the clean ones re-admitted
// and the still-corrupt ones kept. The response lists both sets, so the
// operator knows exactly what came back.
func (s *Server) handleQuarantineClear(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	cleared, kept := []string{}, []string{}
	switch {
	case s.cfg.Federation != nil:
		// Re-verify every shard; names are prefixed with the shard index so
		// the operator sees which shard each vector came back in.
		for k, repo := range s.cfg.Federation.Shards {
			c, kp := repo.ReverifyQuarantined()
			for _, name := range c {
				cleared = append(cleared, fmt.Sprintf("shard%d/%s", k, name))
			}
			for _, name := range kp {
				kept = append(kept, fmt.Sprintf("shard%d/%s", k, name))
			}
		}
	case s.cfg.Repo != nil:
		cleared, kept = s.cfg.Repo.ReverifyQuarantined()
		if cleared == nil {
			cleared = []string{}
		}
		if kept == nil {
			kept = []string{}
		}
	default:
		s.fail(w, http.StatusUnprocessableEntity, errors.New("no repository"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"cleared": cleared, "kept": kept})
}

// handleMetrics serves the obs registry snapshot as a flat JSON object.
// Keys are stable and values monotonic, so scrapers can diff snapshots.
// With Accept: text/plain the same snapshot is rendered in Prometheus
// text exposition format instead (names normalized to vx_<pkg>_<name>).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, obs.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.Snapshot())
}

// promGaugeSuffixes mark the snapshot keys that are point-in-time values
// rather than monotonic totals.
var promGaugeSuffixes = []string{".p50_us", ".p90_us", ".p99_us", ".max_us"}

// writePrometheus renders a registry snapshot in the Prometheus text
// exposition format: dots become underscores under a vx_ prefix, derived
// histogram quantiles and maxima plus registered obs gauges are typed
// gauge, everything else (plain counters, histogram counts and sums)
// counter.
func writePrometheus(w io.Writer, snap map[string]int64) {
	// Build identity first: a constant-1 gauge whose labels carry the
	// version and repository format, the standard Prometheus idiom for
	// joining build metadata onto other series.
	version, format := obs.BuildInfo()
	fmt.Fprintf(w, "# TYPE vx_build_info gauge\nvx_build_info{version=%q,format=%q} 1\n",
		version, strconv.FormatInt(format, 10))
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		typ := "counter"
		if obs.IsGauge(k) || strings.HasPrefix(k, "process.") {
			typ = "gauge"
		}
		for _, suf := range promGaugeSuffixes {
			if strings.HasSuffix(k, suf) {
				typ = "gauge"
				break
			}
		}
		name := "vx_" + strings.ReplaceAll(k, ".", "_")
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, snap[k])
	}
}

// handleQueries lists the in-flight queries with their live per-query
// counters and elapsed time.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.ActiveQueries.List())
}

// handleQueryCancel handles POST /debug/queries/{id}/cancel: the named
// in-flight query's context is cancelled and the evaluation unwinds
// through the engine's usual cancellation polling.
func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/debug/queries/")
	idStr, action, ok := strings.Cut(rest, "/")
	if !ok || action != "cancel" {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown path %s", r.URL.Path))
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad query id %q", idStr))
		return
	}
	if !obs.ActiveQueries.Cancel(id) {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no cancellable query %d", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"cancelled": id})
}

// handleSlow serves the captured slow queries, most recent first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.SlowQueries.List())
}

// handleTraces serves the sampled trace ring, most recent first: one
// record per retained request with its full span tree.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.Traces.List())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	obsRequests.Inc()
	ctx := r.Context()
	// Request tracing: honor an incoming W3C traceparent (joining the
	// caller's trace, parenting our root on the caller's span); mint a
	// fresh trace otherwise — a malformed header is never a 4xx, it just
	// gets a fresh ID. The trace ID echoes in the response header before
	// any status is written, so even shed/degraded responses carry it.
	rt := reqTrace{s: s, start: time.Now()}
	if s.cfg.Tracing {
		if tid, psid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			rt.tr = obs.NewTraceFrom(tid, psid)
		} else {
			rt.tr = obs.NewTrace()
		}
		ctx, rt.root = rt.tr.Start(ctx, spanRequest)
		w.Header().Set("Traceparent", obs.FormatTraceparent(rt.tr.ID(), rt.root.ID()))
	}
	req, err := decodeQueryRequest(r)
	if err != nil {
		rt.finishError(w, http.StatusBadRequest, err, nil)
		return
	}
	// Parse and plan through the service's plan cache, once per request;
	// malformed queries fail here with a 400 before any evaluation work.
	p, err := s.svc.Prepare(ctx, req.Query)
	if err != nil {
		rt.ev.Query = compactQuery(req.Query)
		rt.finishError(w, http.StatusBadRequest, err, nil)
		return
	}
	rt.ev.Query, rt.ev.Canonical = p.Text(), p.Canonical()
	if s.cfg.Federation != nil {
		rt.ev.ShardFanout = len(s.cfg.Federation.Shards)
	}

	if req.Check {
		var sc *core.StaticCheck
		if s.cfg.Federation != nil {
			sc = s.cfg.Federation.Check(p.Plan())
		} else {
			sc = core.NewRepoEngine(s.cfg.Repo, core.Options{}).CheckPlan(p.Plan())
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(QueryResponse{
			Result:          sc.String(),
			StaticallyEmpty: sc.Empty,
		})
		rt.ev.Source = "static-check"
		rt.ev.StaticallyEmpty = sc.Empty
		rt.finish(http.StatusOK, "ok", nil)
		return
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if reqTO := time.Duration(req.TimeoutMS) * time.Millisecond; timeout == 0 || reqTO < timeout {
			timeout = reqTO
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Attribute the evaluation's work to this request: the engine picks
	// the meter and query text up from the context, registers the query
	// in obs.ActiveQueries, and captures it into obs.SlowQueries when it
	// crosses a threshold.
	meter := &obs.TaskMeter{}
	ctx = obs.WithMeter(obs.WithQueryText(ctx, p.Text()), meter)

	start := time.Now()
	res, src, err := s.svc.QueryPrepared(ctx, p)
	elapsed := time.Since(start)
	obsLatency.Observe(elapsed)
	if s.cfg.SlowQuery > 0 && elapsed > s.cfg.SlowQuery {
		obsSlow.Inc()
		mc := meter.Counters()
		s.cfg.Log.Printf("serve: slow_query elapsed_ms=%d threshold_ms=%d pages_faulted=%d bytes_read=%d vector_opens=%d tuples=%d query=%q",
			elapsed.Milliseconds(), s.cfg.SlowQuery.Milliseconds(),
			mc.PagesFaulted, mc.BytesRead, mc.VectorOpens, mc.Tuples,
			compactQuery(req.Query))
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrOverloaded):
			status = http.StatusTooManyRequests
			obsShed.Inc()
		case errors.Is(err, core.ErrQuarantined):
			// Distinct from 429: the data is fenced off until an operator
			// re-verify, not merely busy. Retry-After points clients at a
			// plausible re-check interval rather than an immediate hammer.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "60")
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		default:
			// A partial-shard failure that is neither overload nor a
			// quarantine fence (e.g. an unrecoverable read fault in one
			// shard) is still a typed degraded response, not a 500: the
			// federation refused to serve a partial merge.
			var de *shard.DegradedError
			if errors.As(err, &de) {
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "60")
			}
		}
		rt.finishError(w, status, err, meter)
		return
	}
	// The answer's JSON string literal is stored on the Result, so only
	// the fields after it are encoded per request: the body is
	// {"result": + literal + the rest of QueryResponse, byte for byte what
	// encoding QueryResponse whole would write.
	lit, err := res.JSON()
	if err != nil {
		rt.finishError(w, http.StatusInternalServerError, err, meter)
		return
	}
	resp := QueryResponse{
		ElapsedUS:       elapsed.Microseconds(),
		Stats:           toQueryStats(res.Stats),
		StaticallyEmpty: res.StaticallyEmpty,
		Cached:          src.Cached(),
		Source:          src.String(),
	}
	if req.Trace && res.Trace != nil {
		for _, op := range res.Trace.Ops {
			resp.Trace = append(resp.Trace, OpTrace{
				Op:       op.Op,
				Kind:     op.Kind,
				WallUS:   op.Wall.Microseconds(),
				LiveRows: op.LiveRows,
				Stats:    toQueryStats(op.Stats),
			})
		}
	}
	rest, err := json.Marshal(resp)
	if err != nil {
		rt.finishError(w, http.StatusInternalServerError, err, meter)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resultField)
	w.Write(lit)
	w.Write(append(rest[len(emptyResult):], '\n'))
	rt.ev.Source = src.String()
	rt.ev.Cached = src.Cached()
	rt.ev.StaticallyEmpty = res.StaticallyEmpty
	rt.finish(http.StatusOK, "ok", meter)
}

// A served body splices the stored literal in after resultField; rest is
// QueryResponse encoded with an empty Result, whose encoding opens with
// emptyResult (Result is the first field and is never omitted).
var (
	resultField = []byte(`{"result":`)
	emptyResult = []byte(`{"result":""`)
)

// reqTrace bundles one request's observability lifecycle: the optional
// span tree and the wide event accumulated as the handler progresses.
type reqTrace struct {
	s     *Server
	tr    *obs.SpanTrace // nil when tracing is off
	root  *obs.Span
	start time.Time
	ev    wideEvent
}

// wideEvent is one line of the wide-event query log: everything known
// about one completed request in a single flat JSON record.
type wideEvent struct {
	Time            time.Time        `json:"time"`
	TraceID         string           `json:"trace_id,omitempty"`
	Query           string           `json:"query,omitempty"`
	Canonical       string           `json:"canonical,omitempty"`
	Outcome         string           `json:"outcome"`
	Status          int              `json:"status"`
	Source          string           `json:"source,omitempty"`
	Cached          bool             `json:"cached,omitempty"`
	StaticallyEmpty bool             `json:"statically_empty,omitempty"`
	ElapsedUS       int64            `json:"elapsed_us"`
	ShardFanout     int              `json:"shard_fanout,omitempty"`
	DegradedShard   *int             `json:"degraded_shard,omitempty"`
	Error           string           `json:"error,omitempty"`
	Counters        obs.TaskCounters `json:"counters"`
}

// finishError maps err to the wide-event outcome taxonomy, writes the
// HTTP error response, and completes the request's observability.
func (rt *reqTrace) finishError(w http.ResponseWriter, status int, err error, meter *obs.TaskMeter) {
	outcome := shard.OutcomeClass(err)
	if status == http.StatusBadRequest {
		outcome = "bad_request"
	}
	var de *shard.DegradedError
	if errors.As(err, &de) {
		rt.ev.DegradedShard = &de.Shard
	}
	rt.ev.Error = err.Error()
	rt.s.fail(w, status, err)
	rt.finish(status, outcome, meter)
}

// finish stamps the root span, offers the trace to the ring and the
// exporter, and emits the wide-event line. Safe with tracing off (only
// the wide event fires) and with wide events off (only the trace).
func (rt *reqTrace) finish(status int, outcome string, meter *obs.TaskMeter) {
	elapsed := time.Since(rt.start)
	if rt.root != nil {
		attrs := []obs.Attr{
			obs.Str("outcome", outcome),
			obs.Int("status", int64(status)),
		}
		if rt.ev.Source != "" {
			attrs = append(attrs, obs.Str("source", rt.ev.Source))
		}
		rt.root.SetAttr(attrs...)
		rt.root.End()
		obs.Traces.OfferTrace(rt.tr, rt.ev.Query, outcome)
		if rt.s.exporter != nil {
			if err := rt.s.exporter.Export(rt.tr); err != nil {
				rt.s.cfg.Log.Printf("serve: trace export failed: %v", err)
			}
		}
	}
	if rt.s.cfg.WideEvents == nil {
		return
	}
	rt.ev.Time = rt.start
	if rt.tr != nil {
		rt.ev.TraceID = rt.tr.ID().String()
	}
	rt.ev.Outcome = outcome
	rt.ev.Status = status
	rt.ev.ElapsedUS = elapsed.Microseconds()
	rt.ev.Counters = meter.Counters()
	line, err := json.Marshal(rt.ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	rt.s.wideMu.Lock()
	_, werr := rt.s.cfg.WideEvents.Write(line)
	rt.s.wideMu.Unlock()
	if werr != nil {
		rt.s.cfg.Log.Printf("serve: wide-event write failed: %v", werr)
	}
}

// decodeQueryRequest accepts either a JSON QueryRequest body or a raw XQ
// query as plain text (curl-friendly).
func decodeQueryRequest(r *http.Request) (QueryRequest, error) {
	const maxBody = 1 << 20
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		return QueryRequest{}, err
	}
	if len(body) > maxBody {
		return QueryRequest{}, fmt.Errorf("request body exceeds %d bytes", maxBody)
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return QueryRequest{}, fmt.Errorf("bad JSON body: %w", err)
		}
		if strings.TrimSpace(req.Query) == "" {
			return QueryRequest{}, errors.New("empty query")
		}
		return req, nil
	}
	if len(trimmed) == 0 {
		return QueryRequest{}, errors.New("empty query")
	}
	return QueryRequest{Query: string(trimmed)}, nil
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	obsErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func toQueryStats(s core.EvalStats) QueryStats {
	return QueryStats{
		VectorsOpened: s.VectorsOpened,
		ValuesScanned: s.ValuesScanned,
		RowsProduced:  s.RowsProduced,
		Tuples:        s.Tuples,
		RunsExpanded:  s.RunsExpanded,
		IndexHits:     s.IndexHits,
	}
}

// compactQuery folds a query onto one log line.
func compactQuery(q string) string {
	return strings.Join(strings.Fields(q), " ")
}
