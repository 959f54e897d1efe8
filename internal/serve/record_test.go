package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// post runs one POST /query through s without a socket and returns the
// status.
func post(s *Server, req QueryRequest) int {
	body, _ := json.Marshal(req)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return rr.Code
}

// listed decodes the records a debug endpoint of s lists.
func listed(t *testing.T, s *Server, path string) []Record {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	var recs []Record
	if err := json.Unmarshal(rr.Body.Bytes(), &recs); err != nil {
		t.Fatalf("GET %s: %v\n%s", path, err, rr.Body.Bytes())
	}
	return recs
}

// TestKeepRuleSlow: a request is kept as slow when its wall time or its
// pages are at or over a threshold; a zero threshold turns that trigger
// off.
func TestKeepRuleSlow(t *testing.T) {
	off := &Server{}
	if keep, slow := off.keep("ok", time.Hour, 1<<40); keep || slow {
		t.Error("a server without thresholds or tracing kept a healthy request")
	}
	s := &Server{cfg: Config{SlowQuery: 100 * time.Millisecond, SlowPages: 10}}
	for _, c := range []struct {
		outcome    string
		wall       time.Duration
		pages      int64
		keep, slow bool
	}{
		{"ok", 150 * time.Millisecond, 0, true, true},
		{"ok", 100 * time.Millisecond, 0, true, true},
		{"ok", 0, 10, true, true},
		{"ok", 50 * time.Millisecond, 9, false, false},
		{"timeout", 200 * time.Millisecond, 0, true, true},
		{"shed", 0, 9, true, false},
	} {
		if keep, slow := s.keep(c.outcome, c.wall, c.pages); keep != c.keep || slow != c.slow {
			t.Errorf("keep(%q, %v, %d) = %v, %v; want %v, %v", c.outcome, c.wall, c.pages, keep, slow, c.keep, c.slow)
		}
	}
	pagesOnly := &Server{cfg: Config{SlowPages: 5}}
	if keep, slow := pagesOnly.keep("ok", time.Hour, 0); keep || slow {
		t.Error("a zero SlowQuery still kept a long request as slow")
	}
	if keep, slow := pagesOnly.keep("ok", 0, 5); !keep || !slow {
		t.Error("the pages trigger did not fire with SlowQuery off")
	}
}

// TestKeepRuleSampling: a request whose outcome is not ok is always kept,
// and with tracing on 1 healthy request in TraceSample is kept; with
// tracing off no healthy request is.
func TestKeepRuleSampling(t *testing.T) {
	off := &Server{}
	if keep, slow := off.keep("bad_request", 0, 0); !keep || slow {
		t.Error("a failed request was not kept, or was kept as slow")
	}
	s := &Server{cfg: Config{SlowQuery: 100 * time.Millisecond, SlowPages: 10, Tracing: true, TraceSample: 4}}
	if keep, slow := s.keep("degraded", 0, 0); !keep || slow {
		t.Error("a degraded request was not kept, or was kept as slow")
	}
	kept := 0
	for range 8 {
		if keep, slow := s.keep("ok", 50*time.Millisecond, 9); keep && !slow {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("head sampling kept %d of 8 healthy requests at 1 in 4, want 2", kept)
	}
	s.cfg.Tracing = false
	for range 8 {
		if keep, _ := s.keep("ok", 0, 0); keep {
			t.Fatal("a healthy request was head-sampled with tracing off")
		}
	}
}

func ringStatuses(recs []*Record) (out []int) {
	for _, rec := range recs {
		out = append(out, rec.Status)
	}
	return out
}

// TestRingWrapOrder: a ring of head samples alone, or of failed records
// alone, keeps the last size records and lists them newest first, before
// and after it wraps.
func TestRingWrapOrder(t *testing.T) {
	for _, outcome := range []string{"ok", "error"} {
		for size := 1; size <= 3; size++ {
			r := ring{size: size}
			var want []int
			for n := 1; n <= 2*size+1; n++ {
				r.add(&Record{Outcome: outcome, Status: n})
				want = append([]int{n}, want...)
				if len(want) > size {
					want = want[:size]
				}
				if got := ringStatuses(r.list(nil)); !slices.Equal(got, want) {
					t.Errorf("%s ring of %d after %d adds: %v, want %v", outcome, size, n, got, want)
				}
			}
		}
	}
}

// TestRingEvictionOrder: in a full ring of mixed records, a head sample
// never evicts a failed or slow record, and a failed or slow record evicts
// the oldest head sample before anything else.
func TestRingEvictionOrder(t *testing.T) {
	r := ring{size: 3}
	for _, step := range []struct {
		rec  Record
		want []int
	}{
		{Record{Outcome: "ok", Status: 1}, []int{1}},
		{Record{Outcome: "error", Status: 2}, []int{2, 1}},
		{Record{Outcome: "ok", Slow: true, Status: 3}, []int{3, 2, 1}},
		{Record{Outcome: "ok", Status: 4}, []int{4, 3, 2}},
		{Record{Outcome: "timeout", Status: 5}, []int{5, 3, 2}},
		{Record{Outcome: "ok", Status: 6}, []int{5, 3, 2}},
		{Record{Outcome: "error", Status: 7}, []int{7, 5, 3}},
	} {
		r.add(&step.rec)
		if got := ringStatuses(r.list(nil)); !slices.Equal(got, step.want) {
			t.Errorf("after adding %d: %v, want %v", step.rec.Status, got, step.want)
		}
	}
}

// TestHeadSamplesKeepSlowAndFailed: after more head samples than the ring
// holds, the earlier slow and failed records are still listed.
func TestHeadSamplesKeepSlowAndFailed(t *testing.T) {
	repo := createRawRepo(t, storage.NewMemFS(), "repo", genServeBib(50))
	s := New(quietConfig(Config{
		Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8,
		Tracing: true, TraceSample: 1, RingSize: 4, SlowPages: 1,
	}))
	query := QueryRequest{Query: `for $b in /bib/book where $b/publisher = 'P3' return $b/title`}
	if code := post(s, query); code != http.StatusOK { // faults pages: slow
		t.Fatalf("cold query: status %d", code)
	}
	if code := post(s, QueryRequest{Query: `for $b in`}); code != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d", code)
	}
	for i := range 10 { // result-cache hits fault nothing: head samples
		if code := post(s, query); code != http.StatusOK {
			t.Fatalf("hit %d: status %d", i, code)
		}
	}
	recs := listed(t, s, "/debug/traces")
	if len(recs) != 4 {
		t.Fatalf("ring lists %d records, want 4", len(recs))
	}
	var slow, failed int
	for _, rec := range recs {
		if rec.Root == nil {
			t.Errorf("traced record without a span tree: %+v", rec)
		}
		switch {
		case rec.Slow && rec.Outcome == "ok" && rec.Source == "eval" && rec.Counters.PagesFaulted > 0:
			slow++
		case rec.Outcome == "bad_request" && rec.Status == http.StatusBadRequest:
			failed++
		}
	}
	if slow != 1 || failed != 1 {
		t.Errorf("ring holds %d slow and %d failed records, want 1 and 1: %+v", slow, failed, recs)
	}
	if got := listed(t, s, "/debug/slow"); len(got) != 1 || !got[0].Slow {
		t.Errorf("/debug/slow lists %+v, want the one slow record", got)
	}
}

// TestServersKeepSeparateRecords: two servers in one process judge and
// keep their own requests by their own thresholds.
func TestServersKeepSeparateRecords(t *testing.T) {
	repo := createRawRepo(t, storage.NewMemFS(), "repo", bibXML)
	fast := New(quietConfig(Config{Repo: repo, SlowQuery: time.Nanosecond}))
	lax := New(quietConfig(Config{Repo: repo, SlowQuery: time.Hour}))
	for _, c := range []struct {
		s *Server
		q string
	}{
		{fast, `for $b in /bib/book where $b/publisher = 'SBP' return $b/title`},
		{lax, `for $b in /bib/book where $b/publisher = 'AW' return $b/title`},
	} {
		if code := post(c.s, QueryRequest{Query: c.q}); code != http.StatusOK {
			t.Fatalf("%q: status %d", c.q, code)
		}
	}
	if recs := listed(t, fast, "/debug/slow"); len(recs) != 1 || !strings.Contains(recs[0].Query, "'SBP'") {
		t.Errorf("the 1 ns server's /debug/slow = %+v, want its own query", recs)
	}
	if recs := listed(t, lax, "/debug/slow"); len(recs) != 0 {
		t.Errorf("the 1 h server's /debug/slow = %+v, want none", recs)
	}
}

// TestShedAfterSlowWaitIsSlow: a request shed with 429 after queueing for
// AdmitWait >= SlowQuery is kept as slow: the wait is request time.
func TestShedAfterSlowWaitIsSlow(t *testing.T) {
	gfs := &gateFS{FS: storage.NewMemFS()}
	repo := createRawRepo(t, gfs, "repo", genServeBib(50))
	s := New(quietConfig(Config{
		Repo: repo, MaxInflight: 1,
		AdmitWait: 20 * time.Millisecond, SlowQuery: 10 * time.Millisecond,
	}))
	gate := make(chan struct{})
	gfs.gate.Store(&gate)
	release := sync.OnceFunc(func() {
		gfs.gate.Store(nil)
		close(gate)
	})
	defer release()
	held := make(chan int, 1)
	go func() { held <- post(s, QueryRequest{Query: `for $b in /bib/book return $b/title`}) }()
	waitFor(t, "the first query to park on a page read", func() bool { return gfs.parked.Load() > 0 })
	const shedQuery = `for $b in /bib/book return $b/author`
	if code := post(s, QueryRequest{Query: shedQuery}); code != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429", code)
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("first query: status %d", code)
	}
	for _, rec := range listed(t, s, "/debug/slow") {
		if rec.Query == shedQuery {
			if rec.Outcome != "shed" || rec.Status != http.StatusTooManyRequests || rec.ElapsedUS < 20_000 {
				t.Errorf("shed record = %+v, want outcome shed, status 429, >= 20 ms", rec)
			}
			return
		}
	}
	t.Errorf("/debug/slow does not list the shed request: %+v", listed(t, s, "/debug/slow"))
}

// TestTimeoutKeepsPartialTrace: a query whose timeout_ms fires mid-
// evaluation is kept with outcome timeout and the per-op trace of the ops
// that completed before it.
func TestTimeoutKeepsPartialTrace(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := range 3000 {
		fmt.Fprintf(&doc, "<book><title>Book %d</title></book>", i)
	}
	for i := range 1500 {
		fmt.Fprintf(&doc, "<article><title>Article %d</title></article>", i)
	}
	doc.WriteString("</bib>")
	repo, err := vectorize.Create(strings.NewReader(doc.String()), filepath.Join(t.TempDir(), "repo"), vectorize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	s := New(quietConfig(Config{Repo: repo, SlowQuery: time.Millisecond}))
	// A cross join far too large to finish in 200 ms.
	req := QueryRequest{Query: `for $b in /bib/book, $a in /bib/article return $b/title, $a/title`, TimeoutMS: 200}
	if code := post(s, req); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	recs := listed(t, s, "/debug/slow")
	if len(recs) != 1 {
		t.Fatalf("/debug/slow lists %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Outcome != "timeout" || rec.Source != "eval" {
		t.Errorf("record outcome %q source %q, want timeout eval", rec.Outcome, rec.Source)
	}
	for _, want := range []string{" 1. bind $b", " 2. bind $a", "total: "} {
		if !strings.Contains(rec.Trace, want) {
			t.Errorf("partial trace lacks %q:\n%s", want, rec.Trace)
		}
	}
}

// TestWideEventIsRingRecord: the -wide-events line of a kept request is
// the JSON of its ring record, span tree and per-op trace included.
func TestWideEventIsRingRecord(t *testing.T) {
	sink := &syncSink{}
	repo := createRawRepo(t, storage.NewMemFS(), "repo", bibXML)
	s := New(quietConfig(Config{Repo: repo, SlowQuery: time.Nanosecond, Tracing: true, WideEvents: sink}))
	if code := post(s, QueryRequest{Query: `for $b in /bib/book return $b/title`}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/slow", nil))
	var raw []json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil || len(raw) != 1 {
		t.Fatalf("/debug/slow = %s (%v), want one record", rr.Body.Bytes(), err)
	}
	var kept bytes.Buffer
	if err := json.Compact(&kept, raw[0]); err != nil {
		t.Fatal(err)
	}
	lines := sink.Lines()
	if len(lines) != 1 || lines[0] != kept.String() {
		t.Errorf("wide events %q, want the ring record\n%s", lines, kept.String())
	}
	for _, field := range []string{`"trace_id":`, `"slow":true`, `"trace":" 1. bind`, `"root":{"name":"serve.request"`} {
		if !strings.Contains(kept.String(), field) {
			t.Errorf("record lacks %s: %s", field, kept.String())
		}
	}
}

// TestSlowQueriesCountsKeptSlow: serve.slow_queries counts exactly the
// records kept as slow, the pages trigger included.
func TestSlowQueriesCountsKeptSlow(t *testing.T) {
	repo := createRawRepo(t, storage.NewMemFS(), "repo", genServeBib(50))
	s := New(quietConfig(Config{Repo: repo, SlowPages: 1, PlanCacheSize: 8, ResultCacheSize: 8}))
	counter := obs.GetCounter("serve.slow_queries")
	before := counter.Load()
	query := QueryRequest{Query: `for $b in /bib/book return $b/title`}
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusBadRequest} {
		req := query
		if i == 2 {
			req.Query = `for $b in`
		}
		if code := post(s, req); code != want {
			t.Fatalf("request %d: status %d, want %d", i, code, want)
		}
	}
	slow := listed(t, s, "/debug/slow")
	if got := counter.Load() - before; got != 1 || len(slow) != 1 || slow[0].Counters.PagesFaulted == 0 {
		t.Errorf("serve.slow_queries moved by %d; /debug/slow = %+v; want 1 and the cold evaluation", got, slow)
	}
	if all := listed(t, s, "/debug/traces"); len(all) != 2 {
		t.Errorf("ring holds %d records, want the slow and the failed one", len(all))
	}
}
