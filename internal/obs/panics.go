package obs

import (
	"sync"
	"time"
)

var obsPanicsCaptured = GetCounter("obs.panics_captured")

// Panics is the process-wide panic capture ring, populated by the
// engine's recover boundary and served at /debug/panics. Panics should
// be rare enough that a small ring holds the full history of interest;
// if it ever wraps, the newest captures are the ones kept.
var Panics = NewPanicRing(32)

// PanicRecord is one captured panic: which query, when, what was thrown,
// and the panicking goroutine's stack.
type PanicRecord struct {
	Query string    `json:"query"`
	Time  time.Time `json:"time"`
	Value string    `json:"value"`
	Stack string    `json:"stack"`
}

// PanicRing is a fixed-capacity ring of panic captures, newest-first on
// List. The shape mirrors SlowRing; panics have no admission threshold —
// every one is captured.
type PanicRing struct {
	mu   sync.Mutex
	ring ring[PanicRecord] // guarded by mu
}

// NewPanicRing returns a ring keeping the last n captures.
func NewPanicRing(n int) *PanicRing {
	return &PanicRing{ring: newRing[PanicRecord](n)}
}

// Record captures one panic, evicting the oldest when full.
func (p *PanicRing) Record(rec PanicRecord) {
	obsPanicsCaptured.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.push(rec)
}

// List returns the captures, newest first.
func (p *PanicRing) List() []PanicRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.newestFirst()
}
