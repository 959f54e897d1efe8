package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/core"
	"vxml/internal/datagen"
	"vxml/internal/obs"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// hostileBooks hold, between them, the byte classes a JSON string
// escapes that an XML document can carry: the markup characters (which
// the XML serializer turns into entities whose & JSON escapes again),
// quotes and backslashes, tab and newline, and U+2028 and U+2029
// (written as their UTF-8 bytes). The CTRL and BADUTF8 placeholders
// become rawValues in a repository built by createRawRepo.
var hostileBooks = []string{
	`<book id="q&quot;1"><title>a &lt;b&gt; &amp; "c" \ d</title></book>`,
	"<book id=\"c2\"><title>tab\tnl\nlast\x7f</title><note>CTRL</note></book>",
	"<book id=\"s3\"><title>ls\xe2\x80\xa8ps\xe2\x80\xa9 snow\xe2\x98\x83 euro\xe2\x82\xac</title></book>",
	"<book id=\"i4\"><title>BADUTF8</title></book>",
}

// rawValues are values no XML parser admits: every control byte JSON
// escapes by name or by number, and bytes that are not valid UTF-8 — a
// lone continuation byte, a cut-short three-byte sequence, 0xff, and a
// cut-short sequence at the very end.
var rawValues = map[string]string{
	"CTRL":    "bs\x08ff\x0cnl\ncr\rtab\tnul\x00one\x01us\x1f",
	"BADUTF8": "cont\x80 cut\xe2\x80 ff\xff tail\xe2\x82",
}

// rawSink swaps a placeholder value for its raw bytes on the way into the
// vectors.
type rawSink struct{ *vectorize.DiskSink }

func (s rawSink) Append(name string, val []byte) error {
	if raw, ok := rawValues[string(val)]; ok {
		val = []byte(raw)
	}
	return s.DiskSink.Append(name, val)
}

// createRawRepo is vectorize.Create on fsys through rawSink: a disk
// repository whose values hold rawValues.
func createRawRepo(t *testing.T, fsys storage.FS, dir, doc string) *vectorize.Repository {
	t.Helper()
	building := dir + ".building"
	store, err := storage.OpenStoreFS(fsys, building, 64)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := vectorize.NewStoreSink(store, false)
	if err != nil {
		t.Fatal(err)
	}
	syms := xmlmodel.NewSymbols()
	skel, err := vectorize.VectorizeStream(strings.NewReader(doc), syms, rawSink{sink})
	if err == nil {
		err = sink.Close()
	}
	if err == nil {
		err = vectorize.CommitStore(store, skel, syms, sink.Set)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = vectorize.PromoteBuild(fsys, building, dir)
	}
	if err != nil {
		t.Fatal(err)
	}
	repo, err := vectorize.Open(dir, vectorize.Options{FS: fsys, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo
}

const hostileQuery = `for $b in /bib/book return $b`

// checkBody asserts the served body is exactly what json.Encoder writes
// for a QueryResponse with Result xml and every other field as served —
// the splice of the stored literal must not differ by a byte.
func checkBody(t *testing.T, label string, body []byte, xml string) QueryResponse {
	t.Helper()
	var got QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: body is not JSON: %v\n%q", label, err, body)
	}
	want := got
	want.Result = xml
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Errorf("%s: served body differs from the encoder's:\n got %q\nwant %q", label, body, buf.Bytes())
	}
	return got
}

// serveQuery runs one POST /query through h without a socket.
func serveQuery(t *testing.T, h http.Handler, req QueryRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%q: status %d: %s", req.Query, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// serviceXML is the reference answer: the same query through a bare,
// cacheless service's Result.XML.
func serviceXML(t *testing.T, svc *core.Service, q string) string {
	t.Helper()
	res, _, err := svc.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := res.XML()
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

func quietConfig(cfg Config) Config {
	cfg.Log = log.New(io.Discard, "", 0)
	return cfg
}

// TestServedBodyMatchesEncoder: over hostile values, every kind of
// answer the handler serves — a fresh evaluation, a result-cache hit, a
// single-flight follower, a traced one (op names holding <, > and &
// included), a statically empty one, a static check's and a 2-shard
// federation's — is byte-identical to encoding QueryResponse whole.
func TestServedBodyMatchesEncoder(t *testing.T) {
	doc := "<bib>" + strings.Join(hostileBooks, "") + "</bib>"
	repo := createRawRepo(t, storage.NewMemFS(), "repo", doc)
	ref := core.NewService(repo, core.ServiceConfig{})
	xml := serviceXML(t, ref, hostileQuery)
	for _, frag := range []string{"&lt;b&gt;", `"c"`, "\x00one\x01", "\xe2\x80\xa8", "\xff", "tail\xe2\x82</title>"} {
		if !strings.Contains(xml, frag) {
			t.Fatalf("reference answer lost %q: %q", frag, xml)
		}
	}

	h := New(quietConfig(Config{Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()
	cold := checkBody(t, "eval", serveQuery(t, h, QueryRequest{Query: hostileQuery}), xml)
	hit := checkBody(t, "result-cache", serveQuery(t, h, QueryRequest{Query: hostileQuery}), xml)
	if cold.Source != "eval" || hit.Source != "result-cache" {
		t.Errorf("sources %q, %q; want eval, result-cache", cold.Source, hit.Source)
	}

	const titles = `for $b in /bib/book return $b/title`
	txml := serviceXML(t, ref, titles)
	traced := checkBody(t, "traced eval", serveQuery(t, h, QueryRequest{Query: titles, Trace: true}), txml)
	tracedHit := checkBody(t, "traced hit", serveQuery(t, h, QueryRequest{Query: titles, Trace: true}), txml)
	if len(traced.Trace) == 0 || len(tracedHit.Trace) == 0 {
		t.Errorf("trace requested but %d / %d ops served", len(traced.Trace), len(tracedHit.Trace))
	}

	// Op names render the query's constants, so these carry <, > and &
	// into the trace's strings.
	const marked = `for $b in /bib/book where $b/title != "<&>" return $b/title`
	mxml := serviceXML(t, ref, marked)
	markedTrace := checkBody(t, "traced markup ops", serveQuery(t, h, QueryRequest{Query: marked, Trace: true}), mxml).Trace
	var ops strings.Builder
	for _, op := range markedTrace {
		ops.WriteString(op.Op)
	}
	if !strings.Contains(ops.String(), "<&>") {
		t.Errorf("no traced op name holds <&>: %+v", markedTrace)
	}

	plan, err := ref.Plan(hostileQuery)
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewRepoEngine(repo, core.Options{}).CheckPlan(plan)
	checked := checkBody(t, "check", serveQuery(t, h, QueryRequest{Query: hostileQuery, Check: true}), sc.String())
	if checked.StaticallyEmpty {
		t.Error("check of a satisfiable query served statically empty")
	}

	const nothing = `for $b in /bib/nosuch return $b`
	empty := checkBody(t, "statically empty", serveQuery(t, h, QueryRequest{Query: nothing}), serviceXML(t, ref, nothing))
	if !empty.StaticallyEmpty {
		t.Error("query over a missing path not served statically empty")
	}
	plan, err = ref.Plan(nothing)
	if err != nil {
		t.Fatal(err)
	}
	checkedEmpty := checkBody(t, "check statically empty", serveQuery(t, h, QueryRequest{Query: nothing, Check: true}),
		core.NewRepoEngine(repo, core.Options{}).CheckPlan(plan).String())
	if !checkedEmpty.StaticallyEmpty {
		t.Error("check of a query over a missing path not statically empty")
	}

	t.Run("single-flight", func(t *testing.T) { checkFollowerBody(t, doc, xml) })
	t.Run("federation", func(t *testing.T) {
		docs := make([]string, len(hostileBooks))
		for i, b := range hostileBooks {
			docs[i] = "<bib>" + b + "</bib>"
		}
		dir := filepath.Join(t.TempDir(), "fed")
		if _, err := shard.Build(docs, dir, shard.BuildConfig{Shards: 2, Policy: shard.PolicyRange}); err != nil {
			t.Fatal(err)
		}
		f, err := shard.OpenFederation(dir, vectorize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fxml := serviceXML(t, shard.NewService(f, core.ServiceConfig{}), hostileQuery)
		fh := New(quietConfig(Config{Federation: f, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()
		fcold := checkBody(t, "federation eval", serveQuery(t, fh, QueryRequest{Query: hostileQuery}), fxml)
		fhit := checkBody(t, "federation hit", serveQuery(t, fh, QueryRequest{Query: hostileQuery}), fxml)
		if fcold.Source != "eval" || fhit.Source != "result-cache" {
			t.Errorf("sources %q, %q; want eval, result-cache", fcold.Source, fhit.Source)
		}
	})
}

// checkFollowerBody serves two identical requests while the first one's
// page reads are parked, so the second joins its flight, and checks both
// bodies.
func checkFollowerBody(t *testing.T, doc, xml string) {
	gfs := &gateFS{FS: storage.NewMemFS()}
	repo := createRawRepo(t, gfs, "repo", doc)
	h := New(quietConfig(Config{Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()

	gate := make(chan struct{})
	gfs.gate.Store(&gate)
	release := sync.OnceFunc(func() {
		gfs.gate.Store(nil)
		close(gate)
	})
	defer release()
	followers := obs.GetCounter("core.singleflight_followers").Load()
	var (
		wg     sync.WaitGroup
		bodies [2][]byte
	)
	serve := func(i int) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(QueryRequest{Query: hostileQuery})
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		bodies[i] = rec.Body.Bytes()
	}
	wg.Add(2)
	go serve(0)
	waitFor(t, "the leader to park on a page read", func() bool { return gfs.parked.Load() > 0 })
	go serve(1)
	waitFor(t, "the second request to join the flight", func() bool {
		return obs.GetCounter("core.singleflight_followers").Load() > followers
	})
	release()
	wg.Wait()
	sources := map[string]bool{}
	for i, body := range bodies {
		sources[checkBody(t, []string{"leader", "follower"}[i], body, xml).Source] = true
	}
	if !sources["eval"] || !sources["single-flight"] {
		t.Errorf("sources %v, want one eval and one single-flight", sources)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateFS parks every file read while a gate is armed, counting the
// parked reads.
type gateFS struct {
	storage.FS
	gate   atomic.Pointer[chan struct{}]
	parked atomic.Int64
}

func (g *gateFS) OpenFile(path string, flag int, perm os.FileMode) (storage.FSFile, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{FSFile: f, g: g}, nil
}

type gateFile struct {
	storage.FSFile
	g *gateFS
}

func (f gateFile) ReadAt(p []byte, off int64) (int, error) {
	if ch := f.g.gate.Load(); ch != nil {
		f.g.parked.Add(1)
		<-*ch
	}
	return f.FSFile.ReadAt(p, off)
}

// TestHitProbesEachCacheOnce: a result-cache hit through the handler
// probes the plan cache once and the result cache once.
func TestHitProbesEachCacheOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := vectorize.Create(strings.NewReader(bibXML), dir, vectorize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	h := New(quietConfig(Config{Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()
	req := QueryRequest{Query: `for $b in /bib/book return $b/title`}
	serveQuery(t, h, req)
	counters := []string{"core.plan_cache_hits", "core.plan_cache_misses", "core.result_cache_hits", "core.result_cache_misses"}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = obs.GetCounter(c).Load()
	}
	serveQuery(t, h, req)
	for i, want := range []int64{1, 0, 1, 0} {
		if got := obs.GetCounter(counters[i]).Load() - before[i]; got != want {
			t.Errorf("%s moved by %d on a hit, want %d", counters[i], got, want)
		}
	}
}

// discardResponse is an http.ResponseWriter that only counts the bytes
// written, so measuring a request does not measure a growing body.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// hitCost serves n result-cache hits of q, each after two collections
// have emptied every sync.Pool (so pooled encoder buffers cannot hide
// per-hit work), and returns the mean allocations and allocated bytes of
// one hit, and the body size.
func hitCost(t *testing.T, h http.Handler, q string, n int) (allocs, bytes float64, size int) {
	t.Helper()
	serveQuery(t, h, QueryRequest{Query: q}) // the miss that fills the cache
	body, _ := json.Marshal(QueryRequest{Query: q})
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body)))
	}
	w := &discardResponse{header: make(http.Header)}
	var a, b runtime.MemStats
	for _, r := range reqs {
		w.n, w.status = 0, http.StatusOK
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&a)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&b)
		if w.status != http.StatusOK {
			t.Fatalf("%q: status %d", q, w.status)
		}
		allocs += float64(b.Mallocs - a.Mallocs)
		bytes += float64(b.TotalAlloc - a.TotalAlloc)
	}
	return allocs / float64(n), bytes / float64(n), w.n
}

// TestHitCostIndependentOfAnswerSize pins a result-cache hit's
// allocations: a KQ1-style answer of a few prices and a KQ4-style
// answer of whole item descriptions, many times larger, cost the same
// number of allocations, and neither allocates more than a small
// constant — the stored literal is copied out, never re-encoded, and
// neither the request nor the rest of the response goes through
// reflection.
func TestHitCostIndependentOfAnswerSize(t *testing.T) {
	var doc strings.Builder
	if err := (datagen.XMark{Scale: 1, Seed: 1}).Generate(&doc); err != nil {
		t.Fatal(err)
	}
	repo, err := vectorize.Create(strings.NewReader(doc.String()), filepath.Join(t.TempDir(), "repo"), vectorize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	h := New(quietConfig(Config{Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	const (
		kq1 = `for $t in /site/closed_auctions/closed_auction where $t/price >= 4000 return $t/price`
		kq4 = `for $i in /site/regions/australia/item return <item_info>{$i/description}</item_info>`
		// perHit bounds one hit's allocated bytes whatever the answer.
		perHit = 4 << 10
		// maxAllocs bounds one hit's allocations: the body buffer, the
		// query string, the TaskMeter and its context, with room for the
		// runtime's own.
		maxAllocs = 8
	)
	smallAllocs, smallBytes, smallSize := hitCost(t, h, kq1, 20)
	bigAllocs, bigBytes, bigSize := hitCost(t, h, kq4, 20)
	t.Logf("KQ1-style hit: %d-byte body, %.1f allocs, %.0f B; KQ4-style hit: %d-byte body, %.1f allocs, %.0f B",
		smallSize, smallAllocs, smallBytes, bigSize, bigAllocs, bigBytes)
	if bigSize < 8*perHit || bigSize < 20*smallSize {
		t.Fatalf("answers %d and %d bytes are too close in size to tell", smallSize, bigSize)
	}
	if int(bigAllocs+0.5) != int(smallAllocs+0.5) {
		t.Errorf("a hit allocates %.1f times for a %d-byte answer but %.1f for a %d-byte one",
			bigAllocs, bigSize, smallAllocs, smallSize)
	}
	for _, c := range []struct {
		bytes float64
		size  int
	}{{smallBytes, smallSize}, {bigBytes, bigSize}} {
		if c.bytes > perHit {
			t.Errorf("a hit on a %d-byte answer allocates %.0f bytes, want <= %d", c.size, c.bytes, perHit)
		}
	}
	if smallAllocs > maxAllocs {
		t.Errorf("a hit allocates %.1f times, want <= %d", smallAllocs, maxAllocs)
	}
}

// TestServedStatsKeepTheirKeys: /query's stats object carries the
// engine's six counters under the names, and with the values, it has
// always served, on an evaluation and on a result-cache hit of the same
// answer. The body is decoded into a map, so a renamed or dropped key
// fails here even where the typed decode of QueryResponse would not see
// it.
func TestServedStatsKeepTheirKeys(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&doc, "<book><publisher>P%d</publisher><author>A%d</author><title>B%d</title></book>", i%3, i%5, i)
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&doc, "<article><author>A%d</author><title>R%d</title></article>", i%7, i)
	}
	doc.WriteString("</bib>")
	repo := createRawRepo(t, storage.NewMemFS(), "repo", doc.String())
	h := New(quietConfig(Config{Repo: repo, PlanCacheSize: 8, ResultCacheSize: 8})).Handler()
	const q = `for $b in /bib/book, $a in /bib/article where $b/author = $a/author and $b/publisher = 'P1' return $b/title, $a/title`
	want := map[string]int64{
		"vectors_opened": 5,
		"values_scanned": 151,
		"rows_produced":  41,
		"tuples":         39,
		"runs_expanded":  39,
		"index_hits":     0,
	}
	for _, source := range []string{"eval", "result-cache"} {
		var resp struct {
			Stats  map[string]int64 `json:"stats"`
			Source string           `json:"source"`
		}
		if err := json.Unmarshal(serveQuery(t, h, QueryRequest{Query: q}), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Source != source {
			t.Fatalf("source %q, want %q", resp.Source, source)
		}
		for k, v := range want {
			if got, ok := resp.Stats[k]; !ok || got != v {
				t.Errorf("%s: stats[%q] = %d (present %v), want %d", source, k, got, ok, v)
			}
		}
	}
}
