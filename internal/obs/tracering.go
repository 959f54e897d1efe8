package obs

// TraceRing: the bounded /debug/traces buffer with head + tail-latency
// sampling. Tail sampling is unconditional — any trace whose outcome is
// not "ok" (shed, degraded, quarantined, panic, timeout, ...) or whose
// wall-clock crosses the slow threshold is always kept, because those
// are exactly the traces an operator goes looking for. Healthy fast
// traces are head-sampled 1-in-N so the ring stays representative but
// cheap under a heavy-traffic mix: a dropped trace never has its tree
// assembled, so the steady-state cost of an unsampled query is one
// atomic increment.

import (
	"sync"
	"time"
)

// Trace-ring counters, registered once at package scope.
var (
	obsTracesKeptHead = GetCounter("obs.traces_kept_head")
	obsTracesKeptTail = GetCounter("obs.traces_kept_tail")
	obsTracesDropped  = GetCounter("obs.traces_dropped")
)

// TraceRecord is one retained trace: identity, the query that caused
// it, outcome labelling, and the assembled span tree.
type TraceRecord struct {
	TraceID string    `json:"trace_id"`
	Query   string    `json:"query,omitempty"`
	Start   time.Time `json:"start"`
	WallUS  int64     `json:"wall_us"`
	Outcome string    `json:"outcome"`
	Sampled string    `json:"sampled"` // "head" or "tail"
	Spans   int       `json:"spans"`
	Root    *SpanNode `json:"root,omitempty"`
}

// TraceRing is a bounded, sampled buffer of completed traces.
type TraceRing struct {
	mu     sync.Mutex
	ring   ring[TraceRecord] // guarded by mu
	rate   int64             // guarded by mu; keep 1-in-rate healthy traces (<=1 keeps all)
	slowNS int64             // guarded by mu; tail threshold (0 = only non-ok outcomes)
	seen   int64             // guarded by mu; healthy-trace counter for head sampling
}

// NewTraceRing returns a ring holding up to size traces with keep-all
// head sampling until Configure is called.
func NewTraceRing(size int) *TraceRing {
	return &TraceRing{ring: newRing[TraceRecord](size), rate: 1}
}

// Traces is the process-wide trace ring served at /debug/traces.
var Traces = NewTraceRing(128)

// Configure resets the ring with a new capacity, head-sampling rate
// (keep 1-in-rate healthy traces; rate <= 1 keeps all), and tail-latency
// threshold (traces at or above slow are always kept; 0 disables the
// latency tail, leaving only outcome-based tail sampling).
func (r *TraceRing) Configure(size int, rate int64, slow time.Duration) {
	if r == nil {
		return
	}
	if rate < 1 {
		rate = 1
	}
	r.mu.Lock()
	r.ring = newRing[TraceRecord](size)
	r.rate = rate
	r.slowNS = int64(slow)
	r.seen = 0
	r.mu.Unlock()
}

// OfferTrace applies the sampling policy to a completed trace and, if
// kept, assembles its tree into the ring. Returns whether the trace was
// retained. Tree assembly is deliberately inside the keep branch so
// dropped traces never pay for it.
func (r *TraceRing) OfferTrace(t *SpanTrace, query, outcome string) bool {
	if r == nil || t == nil {
		return false
	}
	wall := time.Since(t.StartedAt())
	sampled := r.sample(outcome, wall)
	if sampled == "" {
		obsTracesDropped.Inc()
		return false
	}
	rec := TraceRecord{
		TraceID: t.ID().String(),
		Query:   query,
		Start:   t.StartedAt(),
		WallUS:  wall.Microseconds(),
		Outcome: outcome,
		Sampled: sampled,
		Spans:   t.CountSpans(),
		Root:    t.Tree(),
	}
	r.keep(rec)
	if sampled == "tail" {
		obsTracesKeptTail.Inc()
	} else {
		obsTracesKeptHead.Inc()
	}
	return true
}

// sample applies the keep policy: "tail" (bad outcome or slow — always
// kept), "head" (1-in-rate of the healthy rest), or "" (dropped).
func (r *TraceRing) sample(outcome string, wall time.Duration) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if outcome != "ok" || (r.slowNS > 0 && int64(wall) >= r.slowNS) {
		return "tail"
	}
	r.seen++
	if r.seen%r.rate == 0 {
		return "head"
	}
	return ""
}

// keep appends rec, overwriting the oldest entry once full.
func (r *TraceRing) keep(rec TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.push(rec)
}

// List returns retained traces, most recent first.
func (r *TraceRing) List() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.newestFirst()
}
