package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
)

const bibXML = `<bib>
  <book><publisher>SBP</publisher><author>RH</author><title>Curation</title></book>
  <book><publisher>SBP</publisher><author>RH</author><title>XML</title></book>
  <book><publisher>AW</publisher><author>SB</author><title>AXML</title></book>
</bib>`

// startServer builds a disk repository in a temp dir, starts a Server on
// an ephemeral port, and returns its base URL plus the cancel func and a
// channel that yields Run's return value after shutdown.
func startServer(t *testing.T, cfg Config) (string, context.CancelFunc, chan error) {
	t.Helper()
	if cfg.Repo == nil {
		dir := filepath.Join(t.TempDir(), "repo")
		repo, err := vectorize.Create(strings.NewReader(bibXML), dir, vectorize.Options{})
		if err != nil {
			t.Fatalf("create repo: %v", err)
		}
		t.Cleanup(func() { repo.Close() })
		cfg.Repo = repo
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := New(cfg)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
		return "", nil, nil
	}
}

func postQuery(t *testing.T, base string, req QueryRequest) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
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

func scrapeMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// TestServeQueryEndToEnd: one query over the HTTP surface returns the
// right XML, sane stats, and a trace when asked for one.
func TestServeQueryEndToEnd(t *testing.T) {
	base, cancel, done := startServer(t, Config{})
	defer func() { cancel(); <-done }()

	resp, qr := postQuery(t, base, QueryRequest{
		Query: `for $b in /bib/book where $b/publisher = 'SBP' return $b/title`,
		Trace: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want := `<result><title>Curation</title><title>XML</title></result>`
	if qr.Result != want {
		t.Errorf("result = %s, want %s", qr.Result, want)
	}
	if qr.Stats.Tuples != 2 {
		t.Errorf("tuples = %d, want 2", qr.Stats.Tuples)
	}
	if len(qr.Trace) == 0 {
		t.Error("trace requested but empty")
	} else if last := qr.Trace[len(qr.Trace)-1]; last.Kind != "emit" {
		t.Errorf("last trace op kind = %q, want emit", last.Kind)
	}

	// Plain-text bodies are accepted too (curl-friendly).
	resp2, err := http.Post(base+"/query", "text/plain",
		strings.NewReader(`for $b in /bib/book return $b/title`))
	if err != nil {
		t.Fatalf("POST plain: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("plain-text query status = %d", resp2.StatusCode)
	}

	// Bad queries are 400s, not 500s.
	respBad, _ := postQuery(t, base, QueryRequest{Query: `for $b in`})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d, want 400", respBad.StatusCode)
	}
}

// TestServeConcurrentQueries fires parallel queries at one server (the
// engine-per-request pattern) and then checks /metrics monotonicity: the
// request counter must have advanced by at least the queries sent, and no
// counter may ever decrease between scrapes.
func TestServeConcurrentQueries(t *testing.T) {
	base, cancel, done := startServer(t, Config{Workers: 2})
	defer func() { cancel(); <-done }()

	before := scrapeMetrics(t, base)

	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			queries := []string{
				`for $b in /bib/book where $b/publisher = 'SBP' return $b/title`,
				`for $b in /bib/book return $b/author`,
				`for $x in /bib/*//title return $x`,
			}
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				body, _ := json.Marshal(QueryRequest{Query: q})
				resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					errs <- fmt.Errorf("query %q: status %d: %s", q, resp.StatusCode, b)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	after := scrapeMetrics(t, base)
	const sent = clients * perClient
	if got := after["serve.requests"] - before["serve.requests"]; got < sent {
		t.Errorf("serve.requests advanced by %d, want >= %d", got, sent)
	}
	// Each request evaluates or, when an identical query is already in
	// flight, joins that evaluation (single-flight) instead.
	evals := after["core.queries"] - before["core.queries"]
	joined := after["core.singleflight_followers"] - before["core.singleflight_followers"]
	if evals+joined < sent {
		t.Errorf("core.queries advanced by %d and core.singleflight_followers by %d, want >= %d together", evals, joined, sent)
	}
	for k, v := range before {
		a, ok := after[k]
		if !ok {
			t.Errorf("metric %s disappeared between scrapes", k)
			continue
		}
		// Histogram quantiles (and max) are gauges, not monotonic totals: a
		// burst of fast queries legitimately pulls p90 down between scrapes.
		gauge := false
		for _, suf := range promGaugeSuffixes {
			if strings.HasSuffix(k, suf) {
				gauge = true
				break
			}
		}
		if !gauge && a < v {
			t.Errorf("metric %s decreased: %d -> %d", k, v, a)
		}
	}
}

// TestServeCleanShutdown: cancelling the context makes ListenAndRun return
// nil (graceful drain), and the port stops accepting connections.
func TestServeCleanShutdown(t *testing.T) {
	base, cancel, done := startServer(t, Config{})

	if resp, err := http.Get(base + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		resp.Body.Close()
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndRun returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s of cancel")
	}

	if _, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), time.Second); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

// TestServeTimeout: a request-level timeout that cannot possibly be met
// surfaces as 504, and is capped by the server-level timeout.
func TestServeTimeout(t *testing.T) {
	base, cancel, done := startServer(t, Config{})
	defer func() { cancel(); <-done }()

	// timeout_ms=0 means "no request cap"; 1ms may or may not finish on a
	// tiny doc, so only assert the status set, not a specific outcome.
	resp, _ := postQuery(t, base, QueryRequest{
		Query:     `for $b in /bib/book return $b`,
		TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 200 or 504", resp.StatusCode)
	}
}

// genBigBib builds a bib document whose cross joins run long enough to
// observe and cancel over HTTP (mirrors the core test generator).
func genBigBib(n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<book><publisher>P%d</publisher><author>A%d</author><title>Book %d — a title long enough to fill vector pages reasonably fast</title><price>%d</price></book>",
			i%7, i%13, i, 10+i%50)
	}
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&b, "<article><author>A%d</author><title>Article %d</title></article>", i%13, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

// syncBuffer is a mutex-guarded log sink safe to read while the server
// may still be writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeMetricsContentTypes: GET /metrics is JSON by default and
// Prometheus text exposition under Accept: text/plain, with histogram
// quantiles present in both renderings.
func TestServeMetricsContentTypes(t *testing.T) {
	base, cancel, done := startServer(t, Config{})
	defer func() { cancel(); <-done }()

	// One query so the request-duration histogram has an observation.
	if resp, _ := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/title`}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode JSON metrics: %v", err)
	}
	resp.Body.Close()
	for _, key := range []string{"serve.requests", "serve.request_duration.p90_us", "serve.request_duration.p50_us"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON metrics missing %s", key)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics (text/plain): %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Prometheus Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE vx_serve_requests counter",
		"# TYPE vx_serve_request_duration_p90_us gauge",
		"vx_serve_request_duration_p90_us ",
		"# TYPE vx_core_queries counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, ".") && strings.Contains(text, "vx_serve_requests.") {
		t.Error("Prometheus names must not contain dots")
	}
}

// TestServeDebugQueriesCancel: a long-running query shows up in GET
// /debug/queries with live counters, POST /debug/queries/{id}/cancel
// terminates it, and the query request surfaces the cancellation as 504.
func TestServeDebugQueriesCancel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := vectorize.Create(strings.NewReader(genBigBib(2500)), dir, vectorize.Options{})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	t.Cleanup(func() { repo.Close() })
	base, cancel, done := startServer(t, Config{Repo: repo})
	defer func() { cancel(); <-done }()

	// ~3.1M-tuple cross join: many seconds of emit work if never cancelled.
	const marker = "cancel_me_cross_join"
	query := `<` + marker + `> for $b in /bib/book, $a in /bib/article return $b/title, $a/title </` + marker + `>`
	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(QueryRequest{Query: query})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()

	listQueries := func() []obs.ActiveQueryInfo {
		resp, err := http.Get(base + "/debug/queries")
		if err != nil {
			t.Fatalf("GET /debug/queries: %v", err)
		}
		defer resp.Body.Close()
		var qs []obs.ActiveQueryInfo
		if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
			t.Fatalf("decode /debug/queries: %v", err)
		}
		return qs
	}

	var id int64
	deadline := time.Now().Add(10 * time.Second)
	for id == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in /debug/queries")
		}
		for _, q := range listQueries() {
			if strings.Contains(q.Query, marker) {
				id = q.ID
			}
		}
		if id == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// The live counters advance while the query runs.
	for tuples := int64(0); tuples == 0; {
		if time.Now().After(deadline) {
			t.Fatal("live tuple counter never advanced")
		}
		for _, q := range listQueries() {
			if q.ID == id {
				tuples = q.Counters.Tuples
			}
		}
		if tuples == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Wrong method and unknown id fail cleanly.
	if resp, err := http.Get(fmt.Sprintf("%s/debug/queries/%d/cancel", base, id)); err != nil {
		t.Fatalf("GET cancel: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET cancel status = %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Post(base+"/debug/queries/999999/cancel", "", nil); err != nil {
		t.Fatalf("POST bad cancel: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown-id cancel status = %d, want 404", resp.StatusCode)
		}
	}

	resp, err := http.Post(fmt.Sprintf("%s/debug/queries/%d/cancel", base, id), "", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	var cancelled struct {
		Cancelled int64 `json:"cancelled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	resp.Body.Close()
	if cancelled.Cancelled != id {
		t.Errorf("cancel reply id = %d, want %d", cancelled.Cancelled, id)
	}

	select {
	case code := <-status:
		if code != http.StatusGatewayTimeout {
			t.Errorf("cancelled query status = %d, want 504", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query request did not return after cancel")
	}
	for _, q := range listQueries() {
		if q.ID == id {
			t.Errorf("query %d still listed after cancellation", id)
		}
	}
}

// TestServeSlowCapture: a query over the latency threshold lands in GET
// /debug/slow with its final counters and redacted trace, and the slow
// log line carries the structured counter fields.
func TestServeSlowCapture(t *testing.T) {
	var logBuf syncBuffer
	base, cancel, done := startServer(t, Config{
		SlowQuery:    time.Microsecond, // every real query is slower than this
		SlowRingSize: 8,
		Log:          log.New(&logBuf, "", 0),
	})
	defer func() { cancel(); <-done }()

	query := `for $b in /bib/book where $b/publisher = 'SBP' return $b/title`
	if resp, _ := postQuery(t, base, QueryRequest{Query: query}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	resp, err := http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatalf("GET /debug/slow: %v", err)
	}
	defer resp.Body.Close()
	var recs []obs.SlowQueryRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("decode /debug/slow: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("slow ring empty after over-threshold query")
	}
	var rec *obs.SlowQueryRecord
	for i := range recs {
		if strings.Contains(recs[i].Query, "'SBP'") {
			rec = &recs[i]
		}
	}
	if rec == nil {
		t.Fatalf("captured records missing the query: %+v", recs)
	}
	if rec.WallUS <= 0 {
		t.Errorf("captured wall_us = %d, want > 0", rec.WallUS)
	}
	if rec.Counters.Tuples == 0 {
		t.Errorf("captured counters have no tuples: %+v", rec.Counters)
	}
	if rec.Trace == "" {
		t.Error("captured record missing redacted trace")
	}
	if rec.Error != "" {
		t.Errorf("successful query captured with error %q", rec.Error)
	}

	logged := logBuf.String()
	for _, want := range []string{"slow_query", "pages_faulted=", "tuples=", "elapsed_ms="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow log missing %q:\n%s", want, logged)
		}
	}
}

// TestServeStaticCheck: the check-only request validates without
// evaluating, and an unsatisfiable evaluated query reports its verdict.
func TestServeStaticCheck(t *testing.T) {
	base, cancel, done := startServer(t, Config{})
	defer func() { cancel(); <-done }()

	// Check-only, satisfiable: a per-edge report, not statically empty.
	resp, qr := postQuery(t, base, QueryRequest{
		Query: `for $b in /bib/book return $b/title`,
		Check: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	if qr.StaticallyEmpty {
		t.Errorf("satisfiable query reported statically empty:\n%s", qr.Result)
	}
	if !strings.Contains(qr.Result, "bind $b := doc/bib/book") {
		t.Errorf("check report missing bind edge:\n%s", qr.Result)
	}
	if qr.Stats != (QueryStats{}) {
		t.Errorf("check-only request must not evaluate; stats = %+v", qr.Stats)
	}

	// Check-only, unsatisfiable.
	resp, qr = postQuery(t, base, QueryRequest{
		Query: `for $j in /bib/journal return $j`,
		Check: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	if !qr.StaticallyEmpty {
		t.Errorf("unsatisfiable query not reported statically empty:\n%s", qr.Result)
	}

	// Full evaluation of the unsatisfiable query: empty result, zero
	// stats, and the statically_empty marker in the response.
	resp, qr = postQuery(t, base, QueryRequest{
		Query: `for $j in /bib/journal return $j`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status = %d", resp.StatusCode)
	}
	if !qr.StaticallyEmpty {
		t.Error("evaluated unsatisfiable query missing statically_empty marker")
	}
	if qr.Stats.VectorsOpened != 0 || qr.Stats.ValuesScanned != 0 {
		t.Errorf("statically empty eval touched data: %+v", qr.Stats)
	}
	if strings.Contains(qr.Result, "<journal") {
		t.Errorf("result should be empty, got %s", qr.Result)
	}
}
