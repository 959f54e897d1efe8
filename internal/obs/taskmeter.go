package obs

import (
	"context"
	"strconv"
	"sync"
)

// TaskMeter is the per-request counterpart of the process-global registry:
// the one counter block of a query. The storage layer charges the pages,
// bytes, verifies and retries it does for the query straight to it, the
// serving layer charges cache hits, and the engine counts its own work
// into a plain TaskCounters and folds that in where it already polls
// cancellation (each op boundary, and every few thousand tuples during
// emission). Every method is safe on a nil receiver (one predictable
// branch), so hot paths charge unconditionally and unmetered callers pay
// nothing but the check. A meter is read live (the active-query listing,
// admission) while its evaluation charges it, so the block sits behind a
// mutex.
//
// A meter serves one evaluation at a time: the engine reads a trace
// entry as the meter's change across one op, so two evaluations charging
// one meter at once would blur each other's trace. Every caller keeps to
// it: a served request's meter goes to its leader evaluation, a scatter
// gives each shard its own, and each goroutine of `vxstore query
// -parallel` has one.
type TaskMeter struct {
	// Query is the query as the client wrote it, for the active-query
	// registry to show in place of the compiled plan; "" lets it render
	// the plan. It is set before the meter rides a context and never
	// written after.
	Query string

	mu sync.Mutex
	c  TaskCounters // guarded by mu
}

// TaskCounters is what one query did, as a plain value: a snapshot of a
// TaskMeter, the difference between two snapshots (one op's share of an
// evaluation), or a sum of them (a federation's shards).
type TaskCounters struct {
	VectorsOpened    int64 `json:"vectors_opened"`    // distinct data vectors opened (lazy loading)
	ValuesScanned    int64 `json:"values_scanned"`    // vector values read
	RowsProduced     int64 `json:"rows_produced"`     // instantiation rows created by reduce steps
	Tuples           int64 `json:"tuples"`            // value tuples passed to the result skeleton
	RunsExpanded     int64 `json:"runs_expanded"`     // rows materialized by expanding run-compressed rows
	IndexHits        int64 `json:"index_hits"`        // predicates served from a vector index
	PagesFaulted     int64 `json:"pages_faulted"`     // buffer-pool fault-ins
	BytesRead        int64 `json:"bytes_read"`        // page bytes those faults read
	ChecksumVerifies int64 `json:"checksum_verifies"` // page checksums verified on fault-in
	ReadRetries      int64 `json:"read_retries"`      // transient-read retries
	StaticEmpty      int64 `json:"static_empty"`      // static-checker short-circuits
	CacheHits        int64 `json:"cache_hits"`        // answers read from a cache or a shared evaluation
}

// add adds sign times d to c, field by field: the one list of the
// block's fields.
func (c *TaskCounters) add(d *TaskCounters, sign int64) {
	c.VectorsOpened += sign * d.VectorsOpened
	c.ValuesScanned += sign * d.ValuesScanned
	c.RowsProduced += sign * d.RowsProduced
	c.Tuples += sign * d.Tuples
	c.RunsExpanded += sign * d.RunsExpanded
	c.IndexHits += sign * d.IndexHits
	c.PagesFaulted += sign * d.PagesFaulted
	c.BytesRead += sign * d.BytesRead
	c.ChecksumVerifies += sign * d.ChecksumVerifies
	c.ReadRetries += sign * d.ReadRetries
	c.StaticEmpty += sign * d.StaticEmpty
	c.CacheHits += sign * d.CacheHits
}

// Add adds d to c.
func (c *TaskCounters) Add(d TaskCounters) { c.add(&d, 1) }

// AppendJSON appends c as encoding/json writes it, without reflection:
// the served /query response writes its stats with it.
func (c *TaskCounters) AppendJSON(b []byte) []byte {
	for _, f := range [...]struct {
		key string
		n   int64
	}{
		{`{"vectors_opened":`, c.VectorsOpened},
		{`,"values_scanned":`, c.ValuesScanned},
		{`,"rows_produced":`, c.RowsProduced},
		{`,"tuples":`, c.Tuples},
		{`,"runs_expanded":`, c.RunsExpanded},
		{`,"index_hits":`, c.IndexHits},
		{`,"pages_faulted":`, c.PagesFaulted},
		{`,"bytes_read":`, c.BytesRead},
		{`,"checksum_verifies":`, c.ChecksumVerifies},
		{`,"read_retries":`, c.ReadRetries},
		{`,"static_empty":`, c.StaticEmpty},
		{`,"cache_hits":`, c.CacheHits},
	} {
		b = strconv.AppendInt(append(b, f.key...), f.n, 10)
	}
	return append(b, '}')
}

// Sub returns c - d: what happened between snapshot d and snapshot c.
func (c TaskCounters) Sub(d TaskCounters) TaskCounters {
	c.add(&d, -1)
	return c
}

// PageFault charges one buffer-pool fault-in of n page bytes, plus the
// checksum verification that guarded it when verification is on.
func (m *TaskMeter) PageFault(pageBytes int64, verified bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.c.PagesFaulted++
	m.c.BytesRead += pageBytes
	if verified {
		m.c.ChecksumVerifies++
	}
	m.mu.Unlock()
}

// CacheHit charges one answer served from the result cache or a shared
// single-flight evaluation — the request did its work by reading a cached
// result, so every other counter legitimately stays zero.
func (m *TaskMeter) CacheHit() {
	m.Add(TaskCounters{CacheHits: 1})
}

// ReadRetry charges one transient-read retry performed by the buffer
// pool on this query's behalf.
func (m *TaskMeter) ReadRetry() {
	m.Add(TaskCounters{ReadRetries: 1})
}

// ReadRetries returns the retries charged so far — the buffer pool's
// per-query retry budget reads it before sleeping again.
func (m *TaskMeter) ReadRetries() int64 { return m.Counters().ReadRetries }

// PagesFaulted returns the pages faulted so far: what admission budgets
// against, and what a server's SlowPages threshold compares.
func (m *TaskMeter) PagesFaulted() int64 { return m.Counters().PagesFaulted }

// Add folds counts into the meter: the engine's own work since its last
// fold, or a scatter shard's meter, folded into the request's when the
// scatter completes (each shard evaluation has its own meter, so the
// active-query listing attributes work per shard).
func (m *TaskMeter) Add(c TaskCounters) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.c.add(&c, 1)
	m.mu.Unlock()
}

// Counters snapshots the meter. A nil meter reads as all zeros.
func (m *TaskMeter) Counters() TaskCounters {
	if m == nil {
		return TaskCounters{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

// Context plumbing: the meter rides the evaluation's context, so the
// layers below the engine need no API change beyond accepting the ctx
// they already take (or, for the storage pool, an explicit metered call).

type meterKey struct{}

// WithMeter returns a context carrying m; the engine charges the work of
// any evaluation run under it to m.
func WithMeter(ctx context.Context, m *TaskMeter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFrom returns the context's TaskMeter, or nil when none is attached.
func MeterFrom(ctx context.Context) *TaskMeter {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(meterKey{}).(*TaskMeter)
	return m
}
