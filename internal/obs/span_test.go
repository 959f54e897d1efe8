package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanNilSafety: every span API is a no-op on nil receivers and on
// contexts without spans — the "tracing off" representation.
func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr(Str("k", "v"))
	sp.Event("e", Int("n", 1))
	sp.End()
	if sp.Duration() != 0 || sp.Name() != "" {
		t.Fatalf("nil span leaked state")
	}
	var tr *SpanTrace
	ctx, sp2 := tr.Start(context.Background(), "x")
	if sp2 != nil {
		t.Fatalf("nil trace minted a span")
	}
	if got := SpanFrom(ctx); got != nil {
		t.Fatalf("nil trace attached a span to ctx")
	}
	if tr.Tree() != nil || tr.Redacted() != "" {
		t.Fatalf("nil trace produced output")
	}
	ctx2, sp3 := StartSpan(context.Background(), "y")
	if sp3 != nil || ctx2 != context.Background() {
		t.Fatalf("StartSpan on bare ctx should be identity")
	}
}

// TestSpanTreeShape: parentage follows the context chain, sibling order
// is start order, events and attrs land on the right spans, and the
// redacted rendering is deterministic.
func TestSpanTreeShape(t *testing.T) {
	tr := NewTrace()
	ctx, root := tr.Start(context.Background(), "a.root")
	root.SetAttr(Str("q", "query text"), Int("n", 2))
	c1ctx, c1 := StartSpan(ctx, "a.one")
	c1.Event("a.retry", Int("attempt", 1))
	_, g1 := StartSpan(c1ctx, "a.deep")
	g1.End()
	c1.End()
	_, c2 := StartSpan(ctx, "a.two")
	c2.End()
	root.End()

	tree := tr.Tree()
	if tree == nil || tree.Name != "a.root" {
		t.Fatalf("bad root: %+v", tree)
	}
	if len(tree.Children) != 2 || tree.Children[0].Name != "a.one" || tree.Children[1].Name != "a.two" {
		t.Fatalf("bad children: %+v", tree.Children)
	}
	if len(tree.Children[0].Children) != 1 || tree.Children[0].Children[0].Name != "a.deep" {
		t.Fatalf("grandchild misplaced")
	}
	want := "a.root q=\"query text\" n=2\n" +
		"  a.one\n" +
		"    - event a.retry attempt=1\n" +
		"    a.deep\n" +
		"  a.two\n"
	if got := tr.Redacted(); got != want {
		t.Fatalf("redacted mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// TestSpanDurationContainment: a child's duration never exceeds its
// parent's when both ended in LIFO order.
func TestSpanDurationContainment(t *testing.T) {
	tr := NewTrace()
	ctx, root := tr.Start(context.Background(), "a.root")
	_, c := StartSpan(ctx, "a.child")
	time.Sleep(2 * time.Millisecond)
	c.End()
	root.End()
	if c.Duration() > root.Duration() {
		t.Fatalf("child %v > parent %v", c.Duration(), root.Duration())
	}
	d := c.Duration()
	c.End() // second End must not restamp
	if c.Duration() != d {
		t.Fatalf("double End changed duration")
	}
}

// TestTraceparentRoundTrip: format → parse is the identity, and the
// malformed corpus is rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	if len(h) != traceparentLen {
		t.Fatalf("bad length %d: %q", len(h), h)
	}
	gt, gs, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid {
		t.Fatalf("round trip failed: %q", h)
	}
	// Future version with trailing extension is accepted.
	if _, _, ok := ParseTraceparent("01-" + h[3:] + "-extra"); !ok {
		t.Fatalf("future version rejected")
	}
	bad := []string{
		"",
		"00",
		strings.ToUpper(h),
		"ff-" + h[3:],
		"00-" + strings.Repeat("0", 32) + h[35:],
		h[:36] + strings.Repeat("0", 16) + h[52:],
		h[:len(h)-2] + "0g",
		h + "x",
		h[:10],
		strings.Replace(h, "-", "_", 1),
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed %q", s)
		}
	}
}

// TestNewTraceFrom: a remote parent roots the first span under the
// caller's span ID and keeps the caller's trace ID.
func TestNewTraceFrom(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	tr := NewTraceFrom(tid, sid)
	if tr.ID() != tid {
		t.Fatalf("trace ID not honored")
	}
	_, root := tr.Start(context.Background(), "a.root")
	root.End()
	tree := tr.Tree()
	if tree.ParentID != sid.String() {
		t.Fatalf("root parent = %q, want %q", tree.ParentID, sid)
	}
	// Zero trace ID falls back to a fresh local trace.
	if tr2 := NewTraceFrom(TraceID{}, sid); tr2.ID().IsZero() {
		t.Fatalf("zero trace ID not replaced")
	}
}

// TestTraceExporterShape: the export line is valid JSON in OTLP shape
// with parentage and attributes intact.
func TestTraceExporterShape(t *testing.T) {
	var buf bytes.Buffer
	e := NewTraceExporter(&buf, "")
	tr := NewTrace()
	ctx, root := tr.Start(context.Background(), "a.root")
	root.SetAttr(Str("query", "Q"), Bool("hit", true))
	_, c := StartSpan(ctx, "a.child")
	c.Event("a.retry", Int("attempt", 2))
	c.End()
	root.End()
	if err := e.Export(tr); err != nil {
		t.Fatalf("export: %v", err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", line)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					StartNano    string `json:"startTimeUnixNano"`
					EndNano      string `json:"endTimeUnixNano"`
					Events       []struct {
						Name string `json:"name"`
					} `json:"events"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rs := doc.ResourceSpans[0]
	if rs.Resource.Attributes[0].Key != "service.name" || rs.Resource.Attributes[0].Value.StringValue != "vxstore" {
		t.Fatalf("resource attrs: %+v", rs.Resource.Attributes)
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	if spans[0].TraceID != tr.ID().String() || spans[1].TraceID != spans[0].TraceID {
		t.Fatalf("trace IDs inconsistent")
	}
	if spans[1].ParentSpanID != spans[0].SpanID {
		t.Fatalf("child parentage lost")
	}
	if spans[1].Events[0].Name != "a.retry" {
		t.Fatalf("event lost")
	}
	if spans[0].StartNano == "" || spans[0].EndNano <= spans[0].StartNano {
		t.Fatalf("timestamps not ordered: %s..%s", spans[0].StartNano, spans[0].EndNano)
	}
}

// TestProcessSnapshotKeys: the package Snapshot carries build/process
// metadata alongside registry counters.
func TestProcessSnapshotKeys(t *testing.T) {
	SetBuildInfo("test-1.0", 2)
	v, f := BuildInfo()
	if v != "test-1.0" || f != 2 {
		t.Fatalf("build info = %q/%d", v, f)
	}
	snap := Snapshot()
	if snap["process.start_time_unix_seconds"] <= 0 {
		t.Fatalf("missing start time")
	}
	if _, ok := snap["process.uptime_seconds"]; !ok {
		t.Fatalf("missing uptime")
	}
}
