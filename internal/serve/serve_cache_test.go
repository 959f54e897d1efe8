package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
)

// TestServeCachedResult: an identical repeat request over HTTP is served
// from the result cache — marked cached, sourced "result-cache", and
// byte-identical to the cold answer.
func TestServeCachedResult(t *testing.T) {
	base, cancel, done := startServer(t, Config{PlanCacheSize: 8, ResultCacheSize: 8})
	defer func() { cancel(); <-done }()

	req := QueryRequest{Query: `for $b in /bib/book where $b/publisher = 'SBP' return $b/title`}
	resp1, qr1 := postQuery(t, base, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d", resp1.StatusCode)
	}
	if qr1.Cached || qr1.Source != "eval" {
		t.Errorf("cold response cached=%v source=%q, want fresh eval", qr1.Cached, qr1.Source)
	}

	resp2, qr2 := postQuery(t, base, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached status = %d", resp2.StatusCode)
	}
	if !qr2.Cached || qr2.Source != "result-cache" {
		t.Errorf("repeat response cached=%v source=%q, want result-cache hit", qr2.Cached, qr2.Source)
	}
	if qr2.Result != qr1.Result {
		t.Errorf("cached result diverged from cold result:\ncold   %s\ncached %s", qr1.Result, qr2.Result)
	}

	// The hit is visible on the metrics surface, and the admission gauges
	// are exported with Prometheus type gauge.
	if m := scrapeMetrics(t, base); m["core.result_cache_hits"] == 0 {
		t.Error("metrics show no result-cache hits after a cached response")
	}
	promReq, _ := http.NewRequest("GET", base+"/metrics", nil)
	promReq.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(promReq)
	if err != nil {
		t.Fatalf("GET /metrics (prom): %v", err)
	}
	defer promResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(promResp.Body); err != nil {
		t.Fatalf("read prom metrics: %v", err)
	}
	if !strings.Contains(buf.String(), "# TYPE vx_core_admission_inflight gauge") {
		t.Error("admission in-flight level not exported as a Prometheus gauge")
	}
}

// TestServeOverloadSheds: with MaxInflight=1 and no admission wait, a
// second concurrent query is shed with 429 Too Many Requests while a
// long evaluation holds the slot.
func TestServeOverloadSheds(t *testing.T) {
	// A repository big enough that an unselective cross join runs for
	// seconds — request A holds the admission slot while B arrives.
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&doc, "<book><publisher>P%d</publisher><title>Book %d</title></book>", i%7, i)
	}
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&doc, "<article><who>A%d</who><title>Article %d</title></article>", i%13, i)
	}
	doc.WriteString("</bib>")
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := vectorize.Create(strings.NewReader(doc.String()), dir, vectorize.Options{})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	t.Cleanup(func() { repo.Close() })

	// The cross join runs on one goroutine, so it reliably outlives the
	// shed request even on a many-core runner.
	base, cancel, done := startServer(t, Config{Repo: repo, MaxInflight: 1})
	defer func() { cancel(); <-done }()

	// Request A: a multi-second cross join, capped by its own timeout so
	// the test never waits on the full result.
	slow := QueryRequest{
		Query:     `for $b in /bib/book, $a in /bib/article return $b/title, $a/title`,
		TimeoutMS: 2000,
	}
	slowDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(slow)
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			slowDone <- -1
			return
		}
		defer resp.Body.Close()
		slowDone <- resp.StatusCode
	}()

	// Wait until A holds the admission slot.
	deadline := time.Now().Add(10 * time.Second)
	for obs.GetGauge("core.admission_inflight").Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	shedBefore := scrapeMetrics(t, base)["serve.queries_shed"]
	resp, _ := postQuery(t, base, QueryRequest{
		Query: `for $b in /bib/book where $b/publisher = 'P1' return $b/title`,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want %d", resp.StatusCode, http.StatusTooManyRequests)
	}
	if shedAfter := scrapeMetrics(t, base)["serve.queries_shed"]; shedAfter <= shedBefore {
		t.Errorf("serve.queries_shed did not move (%d -> %d)", shedBefore, shedAfter)
	}

	// A finishes (with its result or its timeout) and frees the slot;
	// the same query then succeeds.
	switch status := <-slowDone; status {
	case http.StatusOK, http.StatusGatewayTimeout:
	default:
		t.Fatalf("slow query status = %d, want 200 or 504", status)
	}
	respOK, qr := postQuery(t, base, QueryRequest{
		Query: `for $b in /bib/book where $b/publisher = 'P1' return $b/title`,
	})
	if respOK.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", respOK.StatusCode)
	}
	if !strings.Contains(qr.Result, "<title>") {
		t.Errorf("post-drain result empty: %s", qr.Result)
	}
}
