package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/shard"
)

// Record is everything known about one finished /query request. The
// ring keeps the records the keep rule picks, and /debug/slow,
// /debug/panics and /debug/traces list them; -wide-events writes every
// record as one JSON line. The last five fields are set only for some
// requests.
type Record struct {
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
	// Slow says the request crossed SlowQuery or SlowPages.
	Slow bool `json:"slow,omitempty"`
	// Trace is the redacted per-op trace of the request's own evaluation
	// (source "eval"): every op, or, when it failed, the ops that
	// completed.
	Trace string `json:"trace,omitempty"`
	// Panic and Stack are the value and stack of a panicked evaluation.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Root is the request's span tree, when tracing is on.
	Root *obs.SpanNode `json:"root,omitempty"`
}

// sampled reports whether the record was kept only as a head sample.
func (r *Record) sampled() bool { return r.Outcome == "ok" && !r.Slow }

// keep is the one rule for what a server keeps of a finished request:
// every request whose outcome is not "ok"; every slow one, whose wall
// time reached SlowQuery or whose meter faulted SlowPages pages; and,
// with Tracing on, 1 healthy request in TraceSample. It neither locks
// nor allocates.
func (s *Server) keep(outcome string, wall time.Duration, pages int64) (keep, slow bool) {
	slow = s.cfg.SlowQuery > 0 && wall >= s.cfg.SlowQuery || s.cfg.SlowPages > 0 && pages >= s.cfg.SlowPages
	if outcome != "ok" || slow {
		return true, slow
	}
	return s.cfg.Tracing && s.healthy.Add(1)%s.cfg.TraceSample == 0, false
}

// ring holds a server's kept records, oldest first. When it is full, a
// new record replaces the oldest head sample; a failed or slow record
// that finds none replaces the oldest record, and a head sample that
// finds none is dropped. So head samples never evict a failed or slow
// record.
type ring struct {
	mu   sync.Mutex
	recs []*Record // guarded by mu
	size int
}

func (r *ring) add(rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) < r.size {
		r.recs = append(r.recs, rec)
		return
	}
	i := slices.IndexFunc(r.recs, (*Record).sampled)
	if i < 0 {
		if rec.sampled() {
			return
		}
		i = 0
	}
	r.recs = append(slices.Delete(r.recs, i, i+1), rec)
}

// list returns the records match accepts, newest first; a nil match
// accepts all. Records are never written once in the ring.
func (r *ring) list(match func(*Record) bool) []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []*Record{}
	for i := len(r.recs) - 1; i >= 0; i-- {
		if match == nil || match(r.recs[i]) {
			out = append(out, r.recs[i])
		}
	}
	return out
}

// handleSlow serves the kept slow requests, most recent first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, http.StatusOK, s.ring.list(func(rec *Record) bool { return rec.Slow }))
}

// handlePanics serves the kept requests whose evaluation panicked, most
// recent first.
func (s *Server) handlePanics(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, http.StatusOK, s.ring.list(func(rec *Record) bool { return rec.Panic != "" }))
}

// handleTraces serves the whole ring, most recent first: the failed, slow
// and head-sampled requests, with their span trees when tracing is on.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, http.StatusOK, s.ring.list(nil))
}

// reqTrace is one request's observability: the optional span tree and
// the record's fields, filled in as the handler learns them.
type reqTrace struct {
	s       *Server
	tr      *obs.SpanTrace // nil when tracing is off
	root    *obs.Span
	start   time.Time
	elapsed time.Duration // the request's wall time; read at finish if unset
	rec     Record
	trace   *core.Trace // the per-op trace of a successful answer
	err     error
}

// finishError writes the HTTP error response and closes the request with
// err's outcome.
func (rt *reqTrace) finishError(w http.ResponseWriter, status int, err error, meter *obs.TaskMeter) {
	outcome := shard.OutcomeClass(err)
	if status == http.StatusBadRequest {
		outcome = "bad_request"
	}
	rt.err = err
	rt.s.fail(w, status, err)
	rt.finish(status, outcome, meter)
}

// finish closes the request: it ends and exports the span tree, and,
// when the keep rule keeps the request or wide events are on, builds its
// Record for the ring and the wide-event line.
func (rt *reqTrace) finish(status int, outcome string, meter *obs.TaskMeter) {
	s := rt.s
	if rt.elapsed == 0 {
		rt.elapsed = time.Since(rt.start)
	}
	keep, slow := s.keep(outcome, rt.elapsed, meter.PagesFaulted())
	if rt.root != nil {
		attrs := []obs.Attr{
			obs.Str("outcome", outcome),
			obs.Int("status", int64(status)),
		}
		if rt.rec.Source != "" {
			attrs = append(attrs, obs.Str("source", rt.rec.Source))
		}
		rt.root.SetAttr(attrs...)
		rt.root.End()
		if s.exporter != nil {
			if err := s.exporter.Export(rt.tr); err != nil {
				s.cfg.Log.Printf("serve: trace export failed: %v", err)
			}
		}
	}
	if !keep && s.cfg.WideEvents == nil {
		return
	}
	rec := rt.record(status, outcome, slow, meter)
	if keep {
		if slow {
			obsSlow.Inc()
		}
		s.ring.add(rec)
	}
	if s.cfg.WideEvents == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.wideMu.Lock()
	_, err = s.cfg.WideEvents.Write(append(line, '\n'))
	s.wideMu.Unlock()
	if err != nil {
		s.cfg.Log.Printf("serve: wide-event write failed: %v", err)
	}
}

// record builds the request's Record.
func (rt *reqTrace) record(status int, outcome string, slow bool, meter *obs.TaskMeter) *Record {
	rec := new(Record)
	*rec = rt.rec
	rec.Time = rt.start
	rec.Outcome, rec.Status, rec.Slow = outcome, status, slow
	rec.ElapsedUS = rt.elapsed.Microseconds()
	rec.Counters = meter.Counters()
	if rt.tr != nil {
		rec.TraceID = rt.tr.ID().String()
		rec.Root = rt.tr.Tree()
	}
	trace := rt.trace
	if err := rt.err; err != nil {
		rec.Error = err.Error()
		var te *core.TracedError
		if errors.As(err, &te) {
			trace = te.Trace
		}
		var pe *core.PanicError
		if errors.As(err, &pe) {
			rec.Panic, rec.Stack = fmt.Sprint(pe.Value), string(pe.Stack)
		}
		var de *shard.DegradedError
		if errors.As(err, &de) {
			rec.DegradedShard = &de.Shard
		}
	}
	if trace != nil && rec.Source == core.SourceEval.String() {
		rec.Trace = trace.Redacted()
	}
	return rec
}
