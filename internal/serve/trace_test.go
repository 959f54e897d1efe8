package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// syncSink is a goroutine-safe wide-event buffer.
type syncSink struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncSink) Lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Split(strings.TrimSpace(s.b.String()), "\n")
}

// postTraced posts a query with an optional traceparent header.
func postTraced(t *testing.T, base, query, traceparent string) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Query: query})
	req, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, qr
}

// ringRecord polls /debug/traces for the record with the trace ID. The
// handler keeps it before it returns, but a client can read a large
// response before that.
func ringRecord(t *testing.T, base, traceID string) (rec Record) {
	t.Helper()
	waitFor(t, "trace "+traceID+" in the ring", func() bool {
		var recs []Record
		getJSON(t, base+"/debug/traces", http.StatusOK, &recs)
		for _, rec = range recs {
			if rec.TraceID == traceID {
				return true
			}
		}
		return false
	})
	return rec
}

// wideEvent polls the wide-event sink for the line with the trace ID.
func wideEvent(t *testing.T, sink *syncSink, traceID string) (rec Record) {
	t.Helper()
	waitFor(t, "a wide event for trace "+traceID, func() bool {
		for _, line := range sink.Lines() {
			if rec = (Record{}); json.Unmarshal([]byte(line), &rec) == nil && rec.TraceID == traceID {
				return true
			}
		}
		return false
	})
	return rec
}

const parentTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// TestTraceparentMalformed: a bad (or absent) traceparent header never
// fails the request — the server mints a fresh trace and echoes a
// well-formed traceparent naming it.
func TestTraceparentMalformed(t *testing.T) {
	base, cancel, done := startServer(t, Config{Tracing: true, TraceSample: 1})
	defer func() { cancel(); <-done }()

	for _, hdr := range []string{
		"",
		"garbage",
		"00-xyz-00f067aa0ba902b7-01",
		"00-" + parentTraceID + "-00f067aa0ba902b7",                     // missing flags
		"ff-" + parentTraceID + "-00f067aa0ba902b7-01",                  // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace ID
		"00-" + strings.ToUpper(parentTraceID) + "-00f067aa0ba902b7-01", // uppercase hex
	} {
		resp, qr := postTraced(t, base, `for $b in /bib/book return $b/title`, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q: status = %d, want 200", hdr, resp.StatusCode)
		}
		if qr.Result == "" {
			t.Errorf("header %q: empty result", hdr)
		}
		echo := resp.Header.Get("Traceparent")
		tid, _, ok := obs.ParseTraceparent(echo)
		if !ok {
			t.Fatalf("header %q: response traceparent %q is malformed", hdr, echo)
		}
		if tid.String() == parentTraceID {
			t.Errorf("header %q: malformed parent joined instead of minting fresh", hdr)
		}
	}
}

// TestTraceparentRoundTrip: a valid incoming traceparent is honored —
// the same trace ID appears in the response header, the /debug/traces
// ring, and the wide-event log line, and the server's root span parents
// on the caller's span ID.
func TestTraceparentRoundTrip(t *testing.T) {
	sink := &syncSink{}
	base, cancel, done := startServer(t, Config{Tracing: true, TraceSample: 1, WideEvents: sink})
	defer func() { cancel(); <-done }()

	const parentSpan = "00f067aa0ba902b7"
	resp, _ := postTraced(t, base, `for $b in /bib/book return $b/title`,
		"00-"+parentTraceID+"-"+parentSpan+"-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	tid, sid, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || tid.String() != parentTraceID {
		t.Fatalf("response traceparent %q does not carry the caller's trace ID", resp.Header.Get("Traceparent"))
	}
	if sid.String() == parentSpan {
		t.Error("response span ID is the caller's, not the server root's")
	}

	rec := ringRecord(t, base, parentTraceID)
	if rec.Root == nil || rec.Root.Name != "serve.request" {
		t.Fatalf("trace root = %+v, want serve.request", rec.Root)
	}
	if rec.Root.ParentID != parentSpan {
		t.Errorf("server root parents on %q, want caller span %q", rec.Root.ParentID, parentSpan)
	}

	ev := wideEvent(t, sink, parentTraceID)
	if ev.Outcome != "ok" || ev.Status != http.StatusOK {
		t.Errorf("wide event outcome=%q status=%d, want ok/200", ev.Outcome, ev.Status)
	}
	if ev.Query == "" || ev.Canonical == "" {
		t.Errorf("wide event missing query text: %+v", ev)
	}
	httpGetOK(t, base+"/debug/traces")
}

// httpGetOK asserts the URL serves a 200 with a non-empty body.
func httpGetOK(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK || buf.Len() == 0 {
		t.Fatalf("GET %s: status=%d len=%d err=%v", url, resp.StatusCode, buf.Len(), err)
	}
}

// traceBib builds n-book documents so shard queries fault real vector
// pages at evaluation time.
func traceBib(lo, hi int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "<book><publisher>P%d</publisher><title>Book %d with padding to spread titles over vector pages</title></book>", i%5, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

// TestFederationTraceUnderShardFault is the tentpole acceptance test:
// one federated query, with an injected transient read fault on shard
// 0, produces a single trace tree that covers the request root, the
// federation's serving layer, the per-shard scatter inside its miss
// evaluation (including the storage retry event on shard 0) and the
// merge — all under the trace ID the caller sent, which also labels the
// response header, the /debug/traces record, and the wide-event log line
// with its retry counters.
func TestFederationTraceUnderShardFault(t *testing.T) {
	mem := storage.NewMemFS()
	var docs []string
	for d := 0; d < 4; d++ {
		docs = append(docs, traceBib(d*30, (d+1)*30))
	}
	opts := vectorize.Options{PoolPages: 4, FS: mem}
	cat, err := shard.Build(docs, "fed", shard.BuildConfig{Shards: 2, Policy: shard.PolicyRange, Opts: opts})
	if err != nil {
		t.Fatalf("build federation: %v", err)
	}
	ffs := storage.NewFaultFS(mem)
	repos := make([]*vectorize.Repository, 2)
	for k, si := range cat.Shards {
		fsys := storage.FS(mem)
		if k == 0 {
			fsys = ffs
		}
		repo, err := vectorize.Open("fed/"+si.Dir, vectorize.Options{PoolPages: 4, FS: fsys})
		if err != nil {
			t.Fatalf("open shard %d: %v", k, err)
		}
		t.Cleanup(func() { repo.Close() })
		repos[k] = repo
	}
	fed := &shard.Federation{Dir: "fed", Catalog: cat, Shards: repos}

	sink := &syncSink{}
	cfg := Config{
		Federation:      fed,
		Tracing:         true,
		TraceSample:     1,
		WideEvents:      sink,
		PlanCacheSize:   16,
		ResultCacheSize: 16,
		ReadRetries:     4,
		RetryBackoff:    50 * time.Microsecond,
	}
	base, cancel, done := startServer(t, cfg)
	defer func() { cancel(); <-done }()

	ffs.FailNthRead(1) // the next page read on shard 0 fails once, then recovers
	resp, qr := postTraced(t, base, `for $b in /bib/book where $b/publisher = 'P3' return $b/title`,
		"00-"+parentTraceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(qr.Result, "Book 3 ") {
		t.Fatalf("result missing expected titles: %s", qr.Result)
	}
	if tid, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent")); !ok || tid.String() != parentTraceID {
		t.Fatalf("response traceparent %q lost the caller's trace ID", resp.Header.Get("Traceparent"))
	}

	rec := ringRecord(t, base, parentTraceID)
	if rec.Root == nil || rec.Root.Name != "serve.request" {
		t.Fatalf("root = %+v, want serve.request", rec.Root)
	}
	// serve.request → {core.plan, core.query → {core.cache_lookup,
	// core.admission_wait, core.eval → {shard.scatter → shard.shard_query
	// ×2, shard.merge}}}: the handler plans once, before core.query.
	if childNamed(rec.Root, "core.plan") == nil {
		t.Errorf("no core.plan under the request root:\n%s", rec.Root.Redacted())
	}
	query := childNamed(rec.Root, "core.query")
	if query == nil {
		t.Fatalf("no core.query under the request root:\n%s", rec.Root.Redacted())
	}
	for _, want := range []string{"core.cache_lookup", "core.admission_wait", "core.eval"} {
		if childNamed(query, want) == nil {
			t.Errorf("core.query span missing child %s:\n%s", want, rec.Root.Redacted())
		}
	}
	eval := childNamed(query, "core.eval")
	for _, want := range []string{"shard.scatter", "shard.merge"} {
		if childNamed(eval, want) == nil {
			t.Errorf("core.eval span missing child %s:\n%s", want, rec.Root.Redacted())
		}
	}
	scatter := childNamed(eval, "shard.scatter")
	if scatter == nil {
		t.Fatal("no scatter span")
	}
	perShard := map[float64]*obs.SpanNode{} // JSON numbers decode as float64
	for _, c := range scatter.Children {
		if c.Name != "shard.shard_query" {
			continue
		}
		for _, a := range c.Attrs {
			if a.Key == "shard" {
				if n, ok := a.Value.(float64); ok {
					perShard[n] = c
				}
			}
		}
	}
	if len(perShard) != 2 || perShard[0] == nil || perShard[1] == nil {
		t.Fatalf("scatter fan-out spans = %v, want shards 0 and 1:\n%s", perShard, rec.Root.Redacted())
	}
	if n := countEvents(perShard[0], "storage.read_retry"); n == 0 {
		t.Errorf("shard 0 subtree has no storage.read_retry event:\n%s", perShard[0].Redacted())
	}
	if n := countEvents(perShard[1], "storage.read_retry"); n != 0 {
		t.Errorf("healthy shard 1 subtree has %d retry events", n)
	}
	checkContainment(t, rec.Root)

	ev := wideEvent(t, sink, parentTraceID)
	if ev.Outcome != "ok" || ev.Status != http.StatusOK {
		t.Errorf("wide event outcome=%q status=%d", ev.Outcome, ev.Status)
	}
	if ev.ShardFanout != 2 {
		t.Errorf("wide event shard_fanout = %d, want 2", ev.ShardFanout)
	}
	if ev.Counters.ReadRetries == 0 {
		t.Errorf("wide event read_retries = 0, want >= 1: %+v", ev.Counters)
	}
}

// TestFederationDegradedAttribution: a degraded federated query is
// attributed where an operator looks for it — the trace ring keeps its
// trace under outcome "degraded" even with head sampling that would drop
// a healthy one, and the wide event names the failing shard.
func TestFederationDegradedAttribution(t *testing.T) {
	sink := &syncSink{}
	base, f := startFederationServer(t, 2, Config{
		Tracing:     true,
		TraceSample: 1 << 30,
		WideEvents:  sink,
	})
	name := f.Shards[1].Vectors.Names()[0]
	f.Shards[1].Health.Quarantine(name, "test fence")
	defer f.Shards[1].Health.Clear(name)

	const traceID = "5c0a2f3577b34da6a3ce929d0e0e4737"
	resp, _ := postTraced(t, base, `for $b in /bib/book return $b/publisher`, "00-"+traceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded query status = %d, want 503", resp.StatusCode)
	}
	if rec := ringRecord(t, base, traceID); rec.Outcome != "degraded" {
		t.Errorf("trace ring outcome = %q, want degraded", rec.Outcome)
	}
	ev := wideEvent(t, sink, traceID)
	if ev.Outcome != "degraded" || ev.Status != http.StatusServiceUnavailable {
		t.Errorf("wide event outcome=%q status=%d, want degraded 503", ev.Outcome, ev.Status)
	}
	if ev.DegradedShard == nil || *ev.DegradedShard != 1 {
		t.Errorf("wide event degraded_shard = %v, want 1", ev.DegradedShard)
	}
}

// childNamed returns the first direct child with the given span name.
func childNamed(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// countEvents counts events with the given name anywhere in the subtree.
func countEvents(n *obs.SpanNode, name string) int {
	if n == nil {
		return 0
	}
	total := 0
	for _, ev := range n.Events {
		if ev.Name == name {
			total++
		}
	}
	for _, c := range n.Children {
		total += countEvents(c, name)
	}
	return total
}

// checkContainment asserts every span's window nests inside its
// parent's, with a small slop for microsecond rounding.
func checkContainment(t *testing.T, n *obs.SpanNode) {
	t.Helper()
	const slopUS = 5
	for _, c := range n.Children {
		if c.StartUS+slopUS < n.StartUS {
			t.Errorf("span %s starts %dµs before parent %s", c.Name, n.StartUS-c.StartUS, n.Name)
		}
		if c.StartUS+c.DurUS > n.StartUS+n.DurUS+slopUS {
			t.Errorf("span %s (ends %dµs) outlasts parent %s (ends %dµs)",
				c.Name, c.StartUS+c.DurUS, n.Name, n.StartUS+n.DurUS)
		}
		checkContainment(t, c)
	}
}
