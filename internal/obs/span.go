package obs

// Request tracing: a lightweight span tree carried on context.Context.
//
// The design mirrors TaskMeter's discipline: every method on *Span and
// *SpanTrace is nil-receiver safe, so instrumented code never branches
// on "is tracing on". A query either carries a span in its context (and
// pays for child spans, attributes, and events) or it carries nil and
// every call collapses to a pointer test. A root is minted only by the
// code that owns a request (the HTTP handler, or a test); children follow
// the context with no global checks.
//
// Span identity follows the W3C trace-context model: a 16-byte trace ID
// shared by every span of one request, and an 8-byte span ID per span.
// IDs are minted lock-free from a process-random salt mixed with an
// atomic counter (splitmix64 finalizer), so hot paths never contend on
// a rand source. Golden tests use Redacted(), which drops IDs and
// durations, so determinism of ID bits is never load-bearing.

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across every layer it
// touches. The zero value is invalid (W3C forbids all-zero trace IDs).
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idSalt is a per-process random value folded into every minted ID so
// concurrent processes (e.g. federation shards in tests) do not collide
// even though the counter sequence is identical.
var idSalt uint64

// idCtr is the lock-free ID sequence; each minted 8-byte chunk consumes
// one tick.
var idCtr atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idSalt = binary.LittleEndian.Uint64(b[:])
	} else {
		idSalt = uint64(time.Now().UnixNano())
	}
	idSalt |= 1 // never zero
}

// mix64 is the splitmix64 finalizer: a cheap bijection that turns the
// sequential counter into well-distributed ID bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nextIDWord() uint64 {
	for {
		if v := mix64(idSalt ^ idCtr.Add(1)); v != 0 {
			return v
		}
	}
}

// NewTraceID mints a random-looking, process-unique trace ID.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextIDWord())
	binary.BigEndian.PutUint64(t[8:], nextIDWord())
	return t
}

// NewSpanID mints a process-unique span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextIDWord())
	return s
}

// attrKind discriminates Attr payloads without boxing into interfaces.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// Attr is a typed span attribute. Construct with Str, Int, or Bool;
// the zero Attr renders as an empty string key.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, kind: attrString, s: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, kind: attrInt, i: val} }

// Bool builds a boolean attribute.
func Bool(key string, val bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if val {
		a.i = 1
	}
	return a
}

// Value returns the attribute payload as a JSON-friendly value.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrBool:
		return a.i != 0
	default:
		return a.s
	}
}

// render writes key=value, quoting strings so attribute lists stay
// unambiguous in one-line renderings.
func (a Attr) render(b *strings.Builder) {
	b.WriteString(a.Key)
	b.WriteByte('=')
	switch a.kind {
	case attrInt:
		b.WriteString(strconv.FormatInt(a.i, 10))
	case attrBool:
		if a.i != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	default:
		b.WriteString(strconv.Quote(a.s))
	}
}

// SpanEvent is a point-in-time annotation on a span: a retry, a
// quarantine, a cache verdict. Events are cheaper than child spans and
// carry no identity of their own.
type SpanEvent struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Span is one timed operation inside a trace. All methods are safe on a
// nil receiver, which is the "tracing off" representation.
type Span struct {
	tr     *SpanTrace
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	durNS  atomic.Int64 // 0 while running; set exactly once by End

	mu     sync.Mutex
	attrs  []Attr      // guarded by mu
	events []SpanEvent // guarded by mu
}

// Name returns the span's registered name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's ID (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr appends attributes to the span. Later duplicates of a key are
// kept verbatim; renderers show attributes in insertion order.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records a point-in-time annotation on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, Time: time.Now()}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// End stamps the span's duration. The first End wins; later calls are
// no-ops, so defer sp.End() composes with explicit early End calls.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1 // preserve "ended" as a nonzero sentinel
	}
	s.durNS.CompareAndSwap(0, int64(d))
}

// Duration returns the span's recorded duration, or the running elapsed
// time if End has not been called yet.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := s.durNS.Load(); d != 0 {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// SpanTrace owns every span of one request. Spans append themselves in
// start order; tree assembly happens only at export/inspection time so
// the hot path stays an append under a short lock.
type SpanTrace struct {
	id     TraceID
	parent SpanID // remote parent span ID from traceparent; zero if locally rooted
	start  time.Time

	mu    sync.Mutex
	spans []*Span // guarded by mu; in start order
}

// NewTrace mints a locally rooted trace.
func NewTrace() *SpanTrace {
	return &SpanTrace{id: NewTraceID(), start: time.Now()}
}

// NewTraceFrom continues a trace begun by a remote caller: spans join
// the caller's trace ID, and the first root-level span parents onto the
// caller's span ID.
func NewTraceFrom(id TraceID, parent SpanID) *SpanTrace {
	if id.IsZero() {
		return NewTrace()
	}
	return &SpanTrace{id: id, parent: parent, start: time.Now()}
}

// ID returns the trace ID (zero on nil).
func (t *SpanTrace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Start opens a new span in this trace. If ctx already carries a span
// of the same trace the new span becomes its child; otherwise it roots
// at the trace's remote parent (zero for local roots). The returned
// context carries the new span for downstream children.
func (t *SpanTrace) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := t.parent
	if cur := SpanFrom(ctx); cur != nil && cur.tr == t {
		parent = cur.id
	}
	sp := &Span{tr: t, name: name, id: NewSpanID(), parent: parent, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// spanKey carries the current *Span on a context.
type spanKey struct{}

// SpanFrom returns the current span on ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the span carried by ctx. When ctx carries
// no span (tracing off, or an un-instrumented entry point) it returns
// (ctx, nil) without allocating — the universal cheap path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := SpanFrom(ctx)
	if sp == nil {
		return ctx, nil
	}
	return sp.tr.Start(ctx, name)
}

// SpanNode is the exported tree form of a span: nested, JSON-ready, and
// detached from the live Span structs.
type SpanNode struct {
	Name     string          `json:"name"`
	SpanID   string          `json:"span_id"`
	ParentID string          `json:"parent_id,omitempty"`
	StartUS  int64           `json:"start_us"` // offset from trace start
	DurUS    int64           `json:"dur_us"`
	Attrs    []SpanNodeAttr  `json:"attrs,omitempty"`
	Events   []SpanNodeEvent `json:"events,omitempty"`
	Children []*SpanNode     `json:"children,omitempty"`
}

// SpanNodeAttr is one attribute in exported form.
type SpanNodeAttr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanNodeEvent is one event in exported form.
type SpanNodeEvent struct {
	Name  string         `json:"name"`
	AtUS  int64          `json:"at_us"` // offset from trace start
	Attrs []SpanNodeAttr `json:"attrs,omitempty"`
}

// Tree assembles the trace's spans into a single tree. The first
// started parentless span becomes the root; any other span whose
// parent is unknown (e.g. still-running fragments) is attached under
// the root so no span is silently dropped. Returns nil on an empty or
// nil trace.
func (t *SpanTrace) Tree() *SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, sp := range spans {
		nodes[sp.id] = t.node(sp)
	}
	var root *SpanNode
	var orphans []*SpanNode
	for _, sp := range spans {
		n := nodes[sp.id]
		if p, ok := nodes[sp.parent]; ok && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		if root == nil {
			root = n
		} else {
			orphans = append(orphans, n)
		}
	}
	if root == nil {
		return nil
	}
	root.Children = append(root.Children, orphans...)
	return root
}

func (t *SpanTrace) node(sp *Span) *SpanNode {
	sp.mu.Lock()
	attrs := append([]Attr(nil), sp.attrs...)
	events := append([]SpanEvent(nil), sp.events...)
	sp.mu.Unlock()
	n := &SpanNode{
		Name:    sp.name,
		SpanID:  sp.id.String(),
		StartUS: sp.start.Sub(t.start).Microseconds(),
		DurUS:   sp.Duration().Microseconds(),
	}
	if !sp.parent.IsZero() {
		n.ParentID = sp.parent.String()
	}
	for _, a := range attrs {
		n.Attrs = append(n.Attrs, SpanNodeAttr{Key: a.Key, Value: a.Value()})
	}
	for _, ev := range events {
		en := SpanNodeEvent{Name: ev.Name, AtUS: ev.Time.Sub(t.start).Microseconds()}
		for _, a := range ev.Attrs {
			en.Attrs = append(en.Attrs, SpanNodeAttr{Key: a.Key, Value: a.Value()})
		}
		n.Events = append(n.Events, en)
	}
	return n
}

// Redacted renders the trace's tree with IDs and durations normalized
// away, leaving only structure, names, attributes, and events — the
// stable skeleton golden tests compare against.
func (t *SpanTrace) Redacted() string {
	return t.Tree().Redacted()
}

// Redacted renders the node tree as indented text with identity and
// timing dropped. Sibling order is start order, which instrumented
// paths keep deterministic for a fixed query.
func (n *SpanNode) Redacted() string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	n.redact(&b, 0)
	return b.String()
}

func (n *SpanNode) redact(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		Attr{Key: a.Key, kind: attrOf(a.Value), s: strOf(a.Value), i: intOf(a.Value)}.render(b)
	}
	b.WriteByte('\n')
	for _, ev := range n.Events {
		for i := 0; i < depth+1; i++ {
			b.WriteString("  ")
		}
		b.WriteString("- event ")
		b.WriteString(ev.Name)
		for _, a := range ev.Attrs {
			b.WriteByte(' ')
			Attr{Key: a.Key, kind: attrOf(a.Value), s: strOf(a.Value), i: intOf(a.Value)}.render(b)
		}
		b.WriteByte('\n')
	}
	for _, c := range n.Children {
		c.redact(b, depth+1)
	}
}

func attrOf(v any) attrKind {
	switch v.(type) {
	case int64, float64, int:
		return attrInt
	case bool:
		return attrBool
	default:
		return attrString
	}
}

func strOf(v any) string {
	s, _ := v.(string)
	return s
}

func intOf(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	case bool:
		if x {
			return 1
		}
	}
	return 0
}

// --- W3C trace-context (traceparent) ---

// traceparentLen is the exact length of a version-00 traceparent:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex.
const traceparentLen = 55

// ParseTraceparent parses a W3C traceparent header. It accepts
// version-00 headers exactly, and forward-compatibly accepts longer
// headers from future versions as long as the first four fields parse.
// Returns ok=false for anything malformed (wrong shape, uppercase hex,
// all-zero IDs, version ff) — callers mint a fresh trace instead of
// rejecting the request.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < traceparentLen {
		return tid, sid, false
	}
	if len(h) > traceparentLen && h[traceparentLen] != '-' {
		return tid, sid, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	ver := h[0:2]
	if !isLowerHex(ver) || ver == "ff" {
		return tid, sid, false
	}
	if ver == "00" && len(h) != traceparentLen {
		return tid, sid, false
	}
	tidHex, sidHex, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(tidHex) || !isLowerHex(sidHex) || !isLowerHex(flags) {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(tidHex)); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(sid[:], []byte(sidHex)); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// FormatTraceparent renders a version-00 traceparent with the sampled
// flag set, suitable for echoing on responses or forwarding downstream.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", tid, sid)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
