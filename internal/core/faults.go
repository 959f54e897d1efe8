package core

import (
	"errors"
	"fmt"

	"vxml/internal/obs"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
)

// This file is the engine's half of the fault-tolerance layer: the typed
// errors a query can fail with when the fault is the system's rather than
// the query's, and the hook that turns an integrity failure observed by a
// reader's scan into a repository-wide quarantine. The storage half (retry
// policy, Health table) lives in internal/storage; the HTTP mapping
// (500 / 503 + Retry-After) lives in internal/serve.

var (
	obsQueryPanics        = obs.GetCounter("core.query_panics")
	obsQuarantinedQueries = obs.GetCounter("core.queries_quarantined")
)

// ErrInternal marks a query that died to a defect in the engine rather
// than a property of the query or the data. Callers match it with
// errors.Is; the concrete error is a *PanicError carrying the stack.
var ErrInternal = errors.New("internal evaluation error")

// PanicError is a panic captured at the evaluation boundary and converted
// into an error: the query fails, the process and every other in-flight
// query do not. The capture is also recorded in obs.Panics for
// /debug/panics.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack, captured at recover
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: query panicked: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrInternal }

// ErrQuarantined marks a query that touched a vector currently
// quarantined after an integrity failure. It is a fail-fast error — no
// disk I/O happened — and maps to 503 + Retry-After over HTTP (the data
// may return after an operator re-verify), distinct from 429 (the
// request may simply be retried).
var ErrQuarantined = errors.New("vector quarantined")

// QuarantinedError is the concrete ErrQuarantined: which vector, and the
// failure that quarantined it.
type QuarantinedError struct {
	Vector string
	Reason string
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("core: vector %q quarantined: %s", e.Vector, e.Reason)
}

func (e *QuarantinedError) Unwrap() error { return ErrQuarantined }

// quarantine acts on a failed scan of text class c's vector. The buffer
// pool has already re-read the page once by the time an ErrCorrupt-
// wrapping error surfaces here, so the corruption is persistent: the
// vector goes into the repository's Health table, with an event on the
// evaluation's span, and every later query touching it fails fast with
// ErrQuarantined instead of re-reading (and re-failing) the bad page.
// Engines without a Health table do nothing.
func (x *evalContext) quarantine(c skeleton.ClassID, err error) {
	if x.e.Health == nil || !errors.Is(err, storage.ErrCorrupt) {
		return
	}
	name := x.e.Classes.VectorName(c)
	x.e.Health.Quarantine(name, err.Error())
	obs.SpanFrom(x.ctx).Event(evQuarantine, obs.Str("vector", name), obs.Str("error", err.Error()))
}

// evQuarantine is the span event recorded when a scan integrity failure
// quarantines a vector mid-query.
const evQuarantine = "core.quarantine"
