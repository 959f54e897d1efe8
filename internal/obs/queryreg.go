package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Query-scoped telemetry registration counters. Registered once at
// package scope per the obsnames convention.
var (
	obsQueryCancels = GetCounter("obs.query_cancels")
	obsSlowCaptured = GetCounter("obs.slow_captured")
)

// activeQuery is one in-flight evaluation's registry entry. The query
// text is a lazy renderer: plans only stringify when somebody actually
// looks (List or a slow capture), never on the evaluation hot path.
type activeQuery struct {
	id     int64
	query  func() string
	start  time.Time
	meter  *TaskMeter
	cancel context.CancelFunc
}

// QueryRegistry tracks in-flight evaluations: the engine registers each
// Eval with its query text, live TaskMeter and cancel func, and the
// serving surface lists and cancels them by id. A registry is cheap — a
// locked map touched twice per query (register/finish) — so it does not
// sit on any per-page or per-value path.
type QueryRegistry struct {
	nextID atomic.Int64
	mu     sync.Mutex
	active map[int64]*activeQuery // guarded by mu
}

// NewQueryRegistry returns an empty registry.
func NewQueryRegistry() *QueryRegistry {
	return &QueryRegistry{active: make(map[int64]*activeQuery)}
}

// Register adds an in-flight query and returns its id. query renders
// the query text on demand — it is called only when the query is listed
// or captured (memoize it if rendering is expensive) and must be safe
// for concurrent calls; nil reads as empty. The meter may be nil
// (counters read as zero); cancel may be nil (the query is then not
// cancellable through the registry).
func (r *QueryRegistry) Register(query func() string, meter *TaskMeter, cancel context.CancelFunc) int64 {
	id := r.nextID.Add(1)
	q := &activeQuery{id: id, query: query, start: time.Now(), meter: meter, cancel: cancel}
	r.mu.Lock()
	r.active[id] = q
	r.mu.Unlock()
	return id
}

// Finish removes a completed query from the live view.
func (r *QueryRegistry) Finish(id int64) {
	r.mu.Lock()
	delete(r.active, id)
	r.mu.Unlock()
}

// Cancel fires the registered cancel func for id. It reports whether the
// id named a live, cancellable query; the query itself unwinds through
// the engine's usual context-poll machinery and returns ctx.Err().
func (r *QueryRegistry) Cancel(id int64) bool {
	r.mu.Lock()
	q, ok := r.active[id]
	r.mu.Unlock()
	if !ok || q.cancel == nil {
		return false
	}
	q.cancel()
	obsQueryCancels.Inc()
	return true
}

// Inflight returns the number of live queries and the pages they have
// faulted so far — the live load signal admission control budgets
// against. One locked map walk; cheap at serving concurrency levels.
func (r *QueryRegistry) Inflight() (queries int, pagesFaulted int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.active {
		pagesFaulted += q.meter.PagesFaulted()
	}
	return len(r.active), pagesFaulted
}

// ActiveQueryInfo is one live query as the debug endpoint serves it: the
// meter counters are a live snapshot, not final totals.
type ActiveQueryInfo struct {
	ID        int64        `json:"id"`
	Query     string       `json:"query"`
	Start     time.Time    `json:"start"`
	ElapsedUS int64        `json:"elapsed_us"`
	Counters  TaskCounters `json:"counters"`
}

// List snapshots the live queries, oldest first.
func (r *QueryRegistry) List() []ActiveQueryInfo {
	r.mu.Lock()
	qs := make([]*activeQuery, 0, len(r.active))
	for _, q := range r.active {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	now := time.Now()
	out := make([]ActiveQueryInfo, len(qs))
	for i, q := range qs {
		text := ""
		if q.query != nil {
			text = q.query()
		}
		out[i] = ActiveQueryInfo{
			ID:        q.id,
			Query:     text,
			Start:     q.start,
			ElapsedUS: now.Sub(q.start).Microseconds(),
			Counters:  q.meter.Counters(),
		}
	}
	return out
}

// ActiveQueries is the process-wide registry every evaluation reports to.
var ActiveQueries = NewQueryRegistry()

// SlowQueryRecord is one captured slow query: final meter counters plus
// the redacted per-op trace when the evaluation was traced.
type SlowQueryRecord struct {
	ID       int64        `json:"id"`
	Query    string       `json:"query"`
	Start    time.Time    `json:"start"`
	WallUS   int64        `json:"wall_us"`
	Error    string       `json:"error,omitempty"`
	Counters TaskCounters `json:"counters"`
	Trace    string       `json:"trace,omitempty"`
	// TraceID links the record to /debug/traces and the wide-event log
	// when request tracing was active for this query.
	TraceID string `json:"trace_id,omitempty"`
	// ShardRetries counts coordinator-level shard query retries; Shards
	// attributes a federated query's cost and errors to individual
	// shards (empty for single-repository queries).
	ShardRetries int64       `json:"shard_retries,omitempty"`
	Shards       []SlowShard `json:"shards,omitempty"`
}

// SlowShard is one shard's share of a captured federated query.
type SlowShard struct {
	Shard    int          `json:"shard"`
	Counters TaskCounters `json:"counters"`
	Error    string       `json:"error,omitempty"`
	Retries  int64        `json:"retries,omitempty"`
}

// SlowRing retains the most recent queries that crossed a latency or
// pages-faulted threshold, in a fixed-size ring. Thresholds are atomics
// so ShouldCapture is lock-free on the completion path; the ring itself
// is locked, touched only for queries that already proved slow.
type SlowRing struct {
	wallUS atomic.Int64 // capture at/over this wall time; 0 disables
	pages  atomic.Int64 // capture at/over this many pages faulted; 0 disables

	mu   sync.Mutex
	ring ring[SlowQueryRecord] // guarded by mu
}

// NewSlowRing returns a ring holding up to size records (min 1), with
// both thresholds disabled.
func NewSlowRing(size int) *SlowRing {
	return &SlowRing{ring: newRing[SlowQueryRecord](size)}
}

// Configure sets the capture thresholds (zero disables each) and resizes
// the ring, dropping previously captured records.
func (s *SlowRing) Configure(wall time.Duration, pagesFaulted int64, size int) {
	s.wallUS.Store(wall.Microseconds())
	s.pages.Store(pagesFaulted)
	s.mu.Lock()
	s.ring = newRing[SlowQueryRecord](size)
	s.mu.Unlock()
}

// ShouldCapture reports whether a completed query with the given wall
// time and pages-faulted count crosses an enabled threshold.
func (s *SlowRing) ShouldCapture(wall time.Duration, pagesFaulted int64) bool {
	if w := s.wallUS.Load(); w > 0 && wall.Microseconds() >= w {
		return true
	}
	if p := s.pages.Load(); p > 0 && pagesFaulted >= p {
		return true
	}
	return false
}

// Record appends one captured query, evicting the oldest at capacity.
func (s *SlowRing) Record(rec SlowQueryRecord) {
	s.mu.Lock()
	s.ring.push(rec)
	s.mu.Unlock()
	obsSlowCaptured.Inc()
}

// List returns the captured records, most recent first.
func (s *SlowRing) List() []SlowQueryRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.newestFirst()
}

// SlowQueries is the process-wide capture ring; thresholds are off until
// Configure (vxstore serve wires its flags here).
var SlowQueries = NewSlowRing(64)
