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
// queries with their live counters, and POST /debug/queries/{id}/cancel
// cancels one cooperatively. A finished request is judged once, by one
// keep rule, into one Record: the server's ring keeps the failed, slow
// and head-sampled ones, which GET /debug/slow, /debug/panics and
// /debug/traces list (record.go).
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
	"unicode/utf8"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// Config configures a Server. Zero values mean: no request timeout cap,
// no slow-request trigger, log to the standard logger.
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
	// SlowQuery keeps, as slow, every request whose wall time reaches
	// this (GET /debug/slow), whatever its outcome. 0 disables the
	// latency trigger.
	SlowQuery time.Duration
	// SlowPages keeps, as slow, every request whose evaluation faulted at
	// least this many buffer-pool pages, whatever its latency. 0 disables
	// the pages trigger.
	SlowPages int64
	// RingSize is how many finished requests the server keeps for
	// /debug/slow, /debug/panics and /debug/traces. 0 means 128.
	RingSize int
	// Log receives server lifecycle lines and sink write failures; nil
	// uses the process default logger.
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
	// Traceparent response header, every record carries its tree, and
	// the ring also keeps head-sampled healthy requests. Off by default.
	Tracing bool
	// TraceSample keeps 1 healthy request in N in the ring (head
	// sampling); failed and slow requests are always kept. 0 means the
	// default of 16; 1 keeps everything. Only meaningful with Tracing.
	TraceSample int64
	// TraceExport, when non-nil, receives every completed trace as one
	// OTLP-shaped JSON object per line. Only meaningful with Tracing.
	TraceExport io.Writer
	// WideEvents, when non-nil, receives every finished /query request's
	// Record as one JSON line: the same record the ring keeps, whether or
	// not the ring keeps it.
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

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Result    string `json:"result"`
	ElapsedUS int64  `json:"elapsed_us"`
	// Stats is the evaluation's counter block (for a cached answer, the
	// evaluation that produced it).
	Stats obs.TaskCounters `json:"stats"`
	Trace []OpTrace        `json:"trace,omitempty"`
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
	Op       string           `json:"op"`
	Kind     string           `json:"kind"`
	WallUS   int64            `json:"wall_us"`
	LiveRows int64            `json:"live_rows"`
	Stats    obs.TaskCounters `json:"stats"`
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
	ring     ring
	healthy  atomic.Int64 // healthy requests seen, for head sampling
	wideMu   sync.Mutex   // serializes wide-event lines on cfg.WideEvents
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
	if cfg.RingSize <= 0 {
		cfg.RingSize = 128
	}
	if cfg.TraceSample <= 0 {
		cfg.TraceSample = 16
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
	s := &Server{cfg: cfg, mux: http.NewServeMux(), ring: ring{size: cfg.RingSize}}
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
	writeIndented(w, status, resp)
}

// writeIndented serves v as indented JSON.
func writeIndented(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleShards serves the federation's per-shard status (directory,
// document count, epoch, class/vector counts, quarantine list).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Federation == nil {
		s.fail(w, http.StatusUnprocessableEntity, errors.New("not serving a federation"))
		return
	}
	writeIndented(w, http.StatusOK, s.cfg.Federation.Status())
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
	writeIndented(w, http.StatusOK, obs.Snapshot())
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
	writeIndented(w, http.StatusOK, obs.ActiveQueries.List())
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
	req, buf, err := decodeQueryRequest(r)
	if err != nil {
		rt.finishError(w, http.StatusBadRequest, err, nil)
		return
	}
	// Parse and plan through the service's plan cache, once per request;
	// malformed queries fail here with a 400 before any evaluation work.
	p, err := s.svc.Prepare(ctx, req.Query)
	if err != nil {
		rt.rec.Query = compactQuery(req.Query)
		rt.finishError(w, http.StatusBadRequest, err, nil)
		return
	}
	rt.rec.Query, rt.rec.Canonical = p.Text(), p.Canonical()
	if s.cfg.Federation != nil {
		rt.rec.ShardFanout = len(s.cfg.Federation.Shards)
	}

	if req.Check {
		var sc *core.StaticCheck
		if s.cfg.Federation != nil {
			sc = s.cfg.Federation.Check(p.Plan())
		} else {
			sc = core.NewRepoEngine(s.cfg.Repo, core.Options{}).CheckPlan(p.Plan())
		}
		writeResponse(w, buf, appendJSONString(nil, sc.String()), &QueryResponse{StaticallyEmpty: sc.Empty})
		rt.rec.Source = "static-check"
		rt.rec.StaticallyEmpty = sc.Empty
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
	// the meter, which carries the query text, up from the context and
	// registers the query in obs.ActiveQueries.
	meter := &obs.TaskMeter{Query: p.Text()}
	ctx = obs.WithMeter(ctx, meter)

	res, src, err := s.svc.QueryPrepared(ctx, p)
	rt.elapsed, rt.rec.Source = time.Since(rt.start), src.String()
	obsLatency.Observe(rt.elapsed)
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
	lit, err := res.JSON()
	if err != nil {
		rt.finishError(w, http.StatusInternalServerError, err, meter)
		return
	}
	resp := QueryResponse{
		ElapsedUS:       rt.elapsed.Microseconds(),
		Stats:           res.Stats,
		StaticallyEmpty: res.StaticallyEmpty,
		Cached:          src.Cached(),
		Source:          src.String(),
	}
	if req.Trace && res.Trace != nil {
		for _, op := range res.Trace.Ops {
			resp.Trace = append(resp.Trace, OpTrace{op.Op(), op.Kind, op.Wall.Microseconds(), op.LiveRows, op.Stats})
		}
	}
	writeResponse(w, buf, lit, &resp)
	rt.trace = res.Trace
	rt.rec.Cached = src.Cached()
	rt.rec.StaticallyEmpty = res.StaticallyEmpty
	rt.finish(http.StatusOK, "ok", meter)
}

var (
	// jsonContentType is shared by every response: setting it allocates nothing.
	jsonContentType = []string{"application/json"}
	resultField     = []byte(`{"result":`)
	// A byte's two-byte JSON escape letter, and each letter's byte.
	jsonEscapes = [256]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}
	unescapes   = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
)

// writeResponse writes what json.Encoder writes for resp, whose Result is
// the JSON literal lit, written as it is; the other fields go into buf.
func writeResponse(w http.ResponseWriter, buf, lit []byte, resp *QueryResponse) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(resultField)
	w.Write(lit)
	b := strconv.AppendInt(append(buf[:0], `,"elapsed_us":`...), resp.ElapsedUS, 10)
	b = resp.Stats.AppendJSON(append(b, `,"stats":`...))
	sep := `,"trace":[{"op":`
	for _, op := range resp.Trace {
		b = appendJSONString(append(b, sep...), op.Op)
		sep = `,{"op":`
		b = appendJSONString(append(b, `,"kind":`...), op.Kind)
		b = strconv.AppendInt(append(b, `,"wall_us":`...), op.WallUS, 10)
		b = strconv.AppendInt(append(b, `,"live_rows":`...), op.LiveRows, 10)
		b = append(op.Stats.AppendJSON(append(b, `,"stats":`...)), '}')
	}
	if len(resp.Trace) > 0 {
		b = append(b, ']')
	}
	if resp.StaticallyEmpty {
		b = append(b, `,"statically_empty":true`...)
	}
	if resp.Cached {
		b = append(b, `,"cached":true`...)
	}
	if resp.Source != "" {
		b = appendJSONString(append(b, `,"source":`...), resp.Source)
	}
	w.Write(append(b, "}\n"...))
}

// appendJSONString appends s as encoding/json writes it: <, >, &, U+2028
// and U+2029 as \u escapes, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, r, size := s[i], rune(s[i]), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' && (r != utf8.RuneError || size > 1) && r|1 != '\u2029' {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch {
		case jsonEscapes[c] != 0:
			b = append(b, '\\', jsonEscapes[c])
		case r == utf8.RuneError: // an invalid byte; a valid U+FFFD is safe
			b = append(b, `\ufffd`...)
		default:
			b = append(b, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeQueryRequest accepts either a JSON QueryRequest body or a raw XQ
// query as plain text (curl-friendly). It also returns the buffer it read
// the body into, sized from Content-Length with room for a hit's response
// fields, which the query, a copy, no longer needs.
func decodeQueryRequest(r *http.Request) (QueryRequest, []byte, error) {
	const maxBody = 1 << 20
	buf := make([]byte, 0, 512+max(0, min(r.ContentLength, maxBody)))
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+n]; len(buf) > maxBody {
			return QueryRequest{}, nil, fmt.Errorf("request body exceeds %d bytes", maxBody)
		} else if err == io.EOF {
			break
		} else if err != nil {
			return QueryRequest{}, nil, err
		} else if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	req, ok := QueryRequest{}, false
	if trimmed := bytes.TrimSpace(buf); len(trimmed) == 0 || trimmed[0] != '{' {
		req.Query = string(trimmed)
	} else if req, ok = scanQueryRequest(buf); !ok {
		// What is accepted, and every error, stays encoding/json's.
		var full QueryRequest
		if err := json.Unmarshal(buf, &full); err != nil {
			return QueryRequest{}, nil, fmt.Errorf("bad JSON body: %w", err)
		}
		req = full
	}
	if strings.TrimSpace(req.Query) == "" {
		return QueryRequest{}, nil, errors.New("empty query")
	}
	return req, buf, nil
}

// scanQueryRequest decodes a JSON object of QueryRequest's fields, each at
// most once, without reflection, declining anything else or unsure (null,
// other numbers, bytes >= 0x80, surrogates) for encoding/json; it unescapes
// the query in place only once the whole body passed, so body stays intact.
func scanQueryRequest(body []byte) (QueryRequest, bool) {
	s := reqScanner{b: body}
	var req QueryRequest
	var query []byte
	var seen uint8
	for sep := "{"; sep == "{" || !s.word("}"); sep = "," {
		if !s.word(sep) {
			return req, false
		}
		key, ok := s.str()
		if !ok || !s.word(":") {
			return req, false
		}
		var bit uint8
		switch string(key) {
		case "query":
			bit = 1
			query, ok = s.str()
		case "timeout_ms":
			bit = 2
			req.TimeoutMS, ok = s.int()
		case "trace":
			bit, req.Trace = 4, s.word("true")
			ok = req.Trace || s.word("false")
		case "check":
			bit, req.Check = 8, s.word("true")
			ok = req.Check || s.word("false")
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return req, false
		}
		seen |= bit
	}
	if s.word(""); s.i != len(s.b) { // word("") only skips whitespace
		return req, false
	}
	req.Query = string(unquote(query))
	return req, true
}

type reqScanner struct {
	b []byte
	i int
}

// word skips JSON whitespace and consumes w if it comes next.
func (s *reqScanner) word(w string) bool {
	for s.i < len(s.b) && strings.IndexByte(" \t\n\r", s.b[s.i]) >= 0 {
		s.i++
	}
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// str reads a string of printable ASCII and escapes other than
// surrogates, and returns it between its quotes, still escaped.
func (s *reqScanner) str() ([]byte, bool) {
	if !s.word(`"`) {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		case c != '\\':
			s.i++
		case s.i+1 < len(s.b) && unescapes[s.b[s.i+1]] != 0:
			s.i += 2
		default:
			if _, ok := escapedRune(s.b[s.i+1:]); !ok {
				return nil, false
			}
			s.i += 6
		}
	}
	return nil, false
}

// int reads an integer of 1 to 18 digits, too few to overflow.
func (s *reqScanner) int() (int64, bool) {
	s.word("")
	start, n := s.i, int64(0)
	for s.i < len(s.b) && s.i-start < 18 && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	return n, s.i > start && (s.b[start] != '0' || s.i == start+1)
}

// escapedRune decodes the \u escape b, past its backslash, opens with.
func escapedRune(b []byte) (rune, bool) {
	if len(b) < 5 || b[0] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range b[1:5] {
		d := strings.IndexByte("0123456789abcdef0123456789ABCDEF", c)
		if d < 0 {
			return 0, false
		}
		r = r<<4 | rune(d%16)
	}
	return r, r < 0xd800 || r >= 0xe000
}

// unquote decodes str's escapes in place: its output never overtakes its input.
func unquote(b []byte) []byte {
	out := b[:0]
	for i := 0; i < len(b); i++ {
		if b[i] != '\\' {
			out = append(out, b[i])
		} else if r, ok := escapedRune(b[i+1:]); ok {
			out, i = utf8.AppendRune(out, r), i+5
		} else {
			out, i = append(out, unescapes[b[i+1]]), i+1
		}
	}
	return out
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	obsErrors.Inc()
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(append(appendJSONString([]byte(`{"error":`), err.Error()), "}\n"...))
}

// compactQuery folds a query onto one line.
func compactQuery(q string) string {
	return strings.Join(strings.Fields(q), " ")
}
