package obs

import (
	"context"
	"sync/atomic"
)

// TaskMeter is the per-request counterpart of the process-global registry:
// one evaluation owns one meter, and the storage, vector and engine layers
// charge the work they do to it alongside the global counters. Every
// method is safe on a nil receiver (one predictable branch), so hot paths
// charge unconditionally and unmetered callers pay nothing but the check.
// All fields are atomics: a meter is read live (the active-query listing)
// while parallel scan workers of the same evaluation bump it.
type TaskMeter struct {
	pagesFaulted     atomic.Int64
	bytesRead        atomic.Int64
	checksumVerifies atomic.Int64
	vectorOpens      atomic.Int64
	tuples           atomic.Int64
	staticEmpty      atomic.Int64
	cacheHits        atomic.Int64
	readRetries      atomic.Int64
	shardRetries     atomic.Int64
}

// PageFault charges one buffer-pool fault-in of n page bytes, plus the
// checksum verification that guarded it when verification is on.
func (m *TaskMeter) PageFault(pageBytes int64, verified bool) {
	if m == nil {
		return
	}
	m.pagesFaulted.Add(1)
	m.bytesRead.Add(pageBytes)
	if verified {
		m.checksumVerifies.Add(1)
	}
}

// VectorOpen charges one lazily opened data vector.
func (m *TaskMeter) VectorOpen() {
	if m != nil {
		m.vectorOpens.Add(1)
	}
}

// Tuples charges n instantiation-table tuples materialized into the result.
func (m *TaskMeter) Tuples(n int64) {
	if m != nil {
		m.tuples.Add(n)
	}
}

// CacheHit charges one answer served from the result cache or a shared
// single-flight evaluation — the request did its work by reading a cached
// result, so every other counter legitimately stays zero.
func (m *TaskMeter) CacheHit() {
	if m != nil {
		m.cacheHits.Add(1)
	}
}

// StaticEmpty charges one static-checker short-circuit.
func (m *TaskMeter) StaticEmpty() {
	if m != nil {
		m.staticEmpty.Add(1)
	}
}

// ReadRetry charges one transient-read retry performed by the buffer
// pool on this query's behalf.
func (m *TaskMeter) ReadRetry() {
	if m != nil {
		m.readRetries.Add(1)
	}
}

// ReadRetries returns the retries charged so far — the buffer pool's
// per-query retry budget reads it before sleeping again.
func (m *TaskMeter) ReadRetries() int64 {
	if m == nil {
		return 0
	}
	return m.readRetries.Load()
}

// ShardRetry charges one coordinator-level retry of a whole per-shard
// sub-query (distinct from ReadRetry, which counts page-level retries
// inside the buffer pool).
func (m *TaskMeter) ShardRetry() {
	if m != nil {
		m.shardRetries.Add(1)
	}
}

// ShardRetries returns the shard-level retries charged so far.
func (m *TaskMeter) ShardRetries() int64 {
	if m == nil {
		return 0
	}
	return m.shardRetries.Load()
}

// PagesFaulted returns the pages faulted so far (the slow-capture
// threshold input).
func (m *TaskMeter) PagesFaulted() int64 {
	if m == nil {
		return 0
	}
	return m.pagesFaulted.Load()
}

// TaskCounters is a point-in-time copy of a TaskMeter, in the shape the
// debug endpoints serve.
type TaskCounters struct {
	PagesFaulted     int64 `json:"pages_faulted"`
	BytesRead        int64 `json:"bytes_read"`
	ChecksumVerifies int64 `json:"checksum_verifies"`
	VectorOpens      int64 `json:"vector_opens"`
	Tuples           int64 `json:"tuples"`
	StaticEmpty      int64 `json:"static_empty"`
	CacheHits        int64 `json:"cache_hits"`
	ReadRetries      int64 `json:"read_retries"`
	ShardRetries     int64 `json:"shard_retries"`
}

// Add folds a snapshot of another meter into this one. The shard
// coordinator gives each per-shard sub-query its own meter (so the
// active-query listing attributes work per shard) and folds them back
// into the request's meter when the scatter completes.
func (m *TaskMeter) Add(c TaskCounters) {
	if m == nil {
		return
	}
	m.pagesFaulted.Add(c.PagesFaulted)
	m.bytesRead.Add(c.BytesRead)
	m.checksumVerifies.Add(c.ChecksumVerifies)
	m.vectorOpens.Add(c.VectorOpens)
	m.tuples.Add(c.Tuples)
	m.staticEmpty.Add(c.StaticEmpty)
	m.cacheHits.Add(c.CacheHits)
	m.readRetries.Add(c.ReadRetries)
	m.shardRetries.Add(c.ShardRetries)
}

// Counters snapshots the meter. A nil meter reads as all zeros.
func (m *TaskMeter) Counters() TaskCounters {
	if m == nil {
		return TaskCounters{}
	}
	return TaskCounters{
		PagesFaulted:     m.pagesFaulted.Load(),
		BytesRead:        m.bytesRead.Load(),
		ChecksumVerifies: m.checksumVerifies.Load(),
		VectorOpens:      m.vectorOpens.Load(),
		Tuples:           m.tuples.Load(),
		StaticEmpty:      m.staticEmpty.Load(),
		CacheHits:        m.cacheHits.Load(),
		ReadRetries:      m.readRetries.Load(),
		ShardRetries:     m.shardRetries.Load(),
	}
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

type queryTextKey struct{}

// WithQueryText attaches the human-readable query text to the context, so
// the active-query registry and slow-query captures can show the query as
// the client wrote it rather than the compiled plan.
func WithQueryText(ctx context.Context, q string) context.Context {
	return context.WithValue(ctx, queryTextKey{}, q)
}

// QueryTextFrom returns the attached query text, or "".
func QueryTextFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	q, _ := ctx.Value(queryTextKey{}).(string)
	return q
}
