// Package obs is a fixture stub standing in for vxml/internal/obs: the
// registration entry points the obsnames analyzer watches.
package obs

import "context"

// Counter is a monotonically increasing metric.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Histogram records a distribution.
type Histogram struct{}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {}

// GetCounter registers (or fetches) the named counter.
func GetCounter(name string) *Counter { return &Counter{} }

// GetHistogram registers (or fetches) the named histogram.
func GetHistogram(name string) *Histogram { return &Histogram{} }

// Span is one node of a request trace.
type Span struct{}

// End stamps the span's duration.
func (s *Span) End() {}

// SpanTrace collects the spans of one request.
type SpanTrace struct{}

// Start opens a child span on the trace.
func (t *SpanTrace) Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

// StartSpan opens a child of the context's span, if any.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}
